package perf

import (
	"fmt"
	"time"

	"relaxfault/internal/runtrace"
	"relaxfault/internal/trace"
)

// SystemConfig describes one simulation run.
type SystemConfig struct {
	Mem MemConfig
	// PrefetchDegree is each core's next-line prefetch depth (see NewCore);
	// 0, the Table 3 system, disables the prefetcher.
	PrefetchDegree int
	// TargetInstructions is the per-core retirement budget; statistics
	// freeze per core once it is reached, but all cores keep running so
	// shared-resource contention stays realistic.
	TargetInstructions uint64
	// LockWays removes this many ways from every LLC set (repair
	// pessimism experiment); LockBytes instead locks individual lines
	// totalling the given capacity at most one way deep per set (the
	// 100KiB RelaxFault experiment). At most one should be non-zero.
	LockWays  int
	LockBytes int64
	Seed      uint64
	// Trace, if non-nil, records one "perf.run" span per Run on TraceTrack
	// (a worker id, or a runtrace synthetic track). Execution-environment
	// attachment: never part of any configuration fingerprint, never
	// affects results.
	Trace      *runtrace.Recorder
	TraceTrack int
}

// DefaultSystemConfig mirrors Table 3 with a 2M-instruction budget.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		Mem:                DefaultMemConfig(),
		TargetInstructions: 2_000_000,
		Seed:               1,
	}
}

// Validate reports the first configuration error, if any. Run applies it on
// entry; the scenario layer calls it directly so a bad performance spec
// fails before any simulation work starts.
func (cfg SystemConfig) Validate() error {
	if err := cfg.Mem.Validate(); err != nil {
		return err
	}
	if cfg.PrefetchDegree < 0 {
		return fmt.Errorf("perf: negative prefetch degree")
	}
	if cfg.TargetInstructions == 0 {
		return fmt.Errorf("perf: zero instruction target")
	}
	if cfg.LockWays < 0 || cfg.LockBytes < 0 {
		return fmt.Errorf("perf: negative repair lock (%d ways, %d bytes)", cfg.LockWays, cfg.LockBytes)
	}
	if cfg.LockWays > 0 && cfg.LockBytes > 0 {
		return fmt.Errorf("perf: LockWays and LockBytes are mutually exclusive")
	}
	if cfg.LockWays > cfg.Mem.LLCWays {
		return fmt.Errorf("perf: cannot lock %d of %d LLC ways", cfg.LockWays, cfg.Mem.LLCWays)
	}
	if max := int64(cfg.Mem.LLCSets) * 64; cfg.LockBytes > max {
		return fmt.Errorf("perf: LockBytes %d exceeds one way of the LLC (%dB)", cfg.LockBytes, max)
	}
	return nil
}

// CoreResult is one core's outcome.
type CoreResult struct {
	Name         string
	Instructions uint64
	Cycles       int64
	IPC          float64
	L1Hits       uint64
	L2Hits       uint64
	LLCHits      uint64
	MemAccesses  uint64
}

// Result is a full-system outcome.
type Result struct {
	Cores        []CoreResult
	Cycles       int64
	Ops          OpCounts
	LLCHits      uint64
	LLCMisses    uint64
	LLCEvictions uint64
	Prefetches   uint64
	RowHits      uint64
	RowMisses    uint64
	// Seconds is wall time at the 4GHz clock.
	Seconds float64
}

// TotalIPC sums per-core IPCs.
func (r *Result) TotalIPC() float64 {
	var s float64
	for _, c := range r.Cores {
		s += c.IPC
	}
	return s
}

// Machine is a simulated system that runs one simulation after another:
// Run resets its memory system and cores in place instead of building new
// ones, so a caller that runs many simulations builds the 2.2 MB LLC once
// per memory configuration. A reset machine is in the state a new one is
// built in, so its results are the same. The zero value is ready to use; a
// Machine serves one goroutine at a time.
type Machine struct {
	mem   MemConfig // the configuration ms was built for
	ms    *MemSystem
	cores []*Core // every core built so far; a run uses the first one per thread
}

// Run simulates the given threads (one per core) to completion on m.
func (m *Machine) Run(cfg SystemConfig, threads []trace.ThreadParams) (*Result, error) {
	t0 := time.Now()
	traceStart := cfg.Trace.Now()
	s, err := m.load(cfg, threads)
	if err != nil {
		return nil, err
	}
	cycles, err := s.run()
	if err != nil {
		return nil, err
	}
	res := s.result(cycles)
	publishRun(res, s.cores, s.ms.Channels())
	pm.runSeconds.Since(t0)
	cfg.Trace.Record(cfg.TraceTrack, "perf.run", -1, 0, traceStart, cfg.Trace.Now())
	return res, nil
}

// system is one run's view of a machine: its memory system and one core
// per thread.
type system struct {
	target  uint64 // per-core instruction target
	threads []trace.ThreadParams
	ms      *MemSystem
	cores   []*Core
}

// load validates cfg and readies m for it: the memory system with the
// configured LLC lock, and a core per thread over its generator. It resets
// the memory system in place while cfg.Mem is the configuration it was
// built for, and each core m already has; it builds the rest.
func (m *Machine) load(cfg SystemConfig, threads []trace.ThreadParams) (*system, error) {
	if len(threads) == 0 {
		return nil, fmt.Errorf("perf: no threads")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m.ms != nil && m.mem == cfg.Mem {
		m.ms.reset()
	} else {
		ms, err := NewMemSystem(cfg.Mem)
		if err != nil {
			return nil, err
		}
		m.mem, m.ms = cfg.Mem, ms
	}
	if cfg.LockWays > 0 {
		m.ms.LockWays(cfg.LockWays)
	}
	if cfg.LockBytes > 0 {
		m.ms.LockRandomLines(cfg.LockBytes, cfg.Seed)
	}
	for i, tp := range threads {
		tp.Seed ^= cfg.Seed * 0x9E3779B9
		gen := trace.NewThread(tp)
		if i < len(m.cores) {
			m.cores[i].reset(i, cfg.PrefetchDegree, gen)
		} else {
			c, err := NewCore(i, cfg.PrefetchDegree, gen)
			if err != nil {
				return nil, err
			}
			m.cores = append(m.cores, c)
		}
		m.cores[i].Target = cfg.TargetInstructions
	}
	return &system{target: cfg.TargetInstructions, threads: threads, ms: m.ms, cores: m.cores[:len(threads)]}, nil
}

// run advances the machine until every core has reached its target and
// returns the cycle at which the last one did.
//
// The clock moves by events, not cycles. A core acts only when it unblocks
// (its request's data arrives) or its wait ends (Core.nextAct), and the
// channels only at memory-clock edges while a queue holds work, so each
// step jumps to the earliest of those cycles. At that cycle the channels
// tick first, then the due cores in index order — the order a loop that
// ticked everything on every cycle would use. Such a loop does nothing on
// the cycles skipped here: a core that is not due returns at once, and a
// channel with empty queues only clears its write-drain flag, which is
// already clear once its write queue has emptied. The two clocks
// therefore produce the same state at every cycle (the perf tests check
// this against a plain cycle-by-cycle loop).
func (s *system) run() (int64, error) {
	perMC := s.ms.cpuPerMC
	wake := make([]int64, len(s.cores))
	for i, c := range s.cores {
		wake[i] = c.nextAct(1)
	}
	pending := len(s.cores)
	// next is the earliest known core wake, edge the first memory-clock
	// edge after now.
	now, next, edge := int64(0), int64(1), perMC
	for {
		// The edge counts only while a queue holds work.
		atEdge := edge <= next && s.ms.Busy()
		if atEdge {
			next = edge
		}
		if next == never {
			return 0, fmt.Errorf("perf: no core can act and no request is queued at cycle %d", now)
		}
		now = next
		switch {
		case now == edge:
			edge += perMC
		case now > edge:
			edge = (now/perMC + 1) * perMC
		}
		if atEdge {
			s.ms.tick(now / perMC)
			// A channel may have scheduled a request a core is blocked on.
			for i, c := range s.cores {
				if wake[i] == never {
					wake[i] = c.nextAct(now)
				}
			}
		}
		next = never
		for i, c := range s.cores {
			if wake[i] == now {
				c.Tick(now, s.ms)
				if c.DoneCycle == now {
					pending--
				}
				wake[i] = c.nextAct(now + 1)
			}
			next = min(next, wake[i])
		}
		if pending == 0 {
			return now, nil
		}
	}
}

// result assembles the run's outcome after the last core finished at
// cycle cycles.
func (s *system) result(cycles int64) *Result {
	ms := s.ms
	res := &Result{
		Cycles:       cycles,
		Ops:          ms.TotalOps(),
		LLCHits:      ms.LLCHits,
		LLCMisses:    ms.LLCMisses,
		LLCEvictions: ms.LLCEvictions,
		Prefetches:   ms.Prefetches,
		Seconds:      float64(cycles) / 4e9,
	}
	for _, ch := range ms.Channels() {
		res.RowHits += ch.RowHits
		res.RowMisses += ch.RowMisses
	}
	for _, c := range s.cores {
		res.Cores = append(res.Cores, CoreResult{
			Name:         s.threads[c.ID].Name,
			Instructions: s.target,
			Cycles:       c.DoneCycle,
			IPC:          float64(s.target) / float64(c.DoneCycle),
			L1Hits:       c.L1Hits,
			L2Hits:       c.L2Hits,
			LLCHits:      c.LLCLevel,
			MemAccesses:  c.MemLevel,
		})
	}
	return res
}

// SpeedupOf evaluates Equation (2), the weighted speedup of a shared run:
// the sum over its threads, in core order, of each one's shared-mode IPC
// divided by aloneIPC, its IPC when run alone on the full-capacity system.
// A thread with no alone IPC adds nothing.
func SpeedupOf(shared *Result, aloneIPC []float64) float64 {
	var ws float64
	for i, c := range shared.Cores {
		if aloneIPC[i] > 0 {
			ws += c.IPC / aloneIPC[i]
		}
	}
	return ws
}
