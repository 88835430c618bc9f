package perf

import "relaxfault/internal/trace"

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
	// Machine is every core (caches and generator included) and the memory
	// system, for a final deep comparison.
	Machine any
}

// Simulate builds cfg's machine like Run and advances it with Run's event
// clock, or, with plain set, with the cycle-by-cycle reference loop.
func Simulate(cfg SystemConfig, threads []trace.ThreadParams, plain bool) (*Outcome, error) {
	s, err := newSystem(cfg, threads)
	if err != nil {
		return nil, err
	}
	var cycles int64
	if plain {
		cycles = s.runPlain()
	} else if cycles, err = s.run(); err != nil {
		return nil, err
	}
	o := &Outcome{Result: s.result(cycles), Machine: s}
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
