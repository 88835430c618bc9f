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

// Run simulates the given threads (one per core) to completion.
func Run(cfg SystemConfig, threads []trace.ThreadParams) (*Result, error) {
	t0 := time.Now()
	traceStart := cfg.Trace.Now()
	if len(threads) == 0 {
		return nil, fmt.Errorf("perf: no threads")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ms, err := NewMemSystem(cfg.Mem)
	if err != nil {
		return nil, err
	}
	if cfg.LockWays > 0 {
		ms.LockWays(cfg.LockWays)
	}
	if cfg.LockBytes > 0 {
		ms.LockRandomLines(cfg.LockBytes, cfg.Seed)
	}
	cores := make([]*Core, len(threads))
	for i, tp := range threads {
		tp.Seed ^= cfg.Seed * 0x9E3779B9
		gen := trace.NewThread(tp)
		c, err := NewCore(i, cfg.PrefetchDegree, gen)
		if err != nil {
			return nil, err
		}
		c.Target = cfg.TargetInstructions
		cores[i] = c
	}

	var cycle int64
	for {
		cycle++
		ms.Tick(cycle)
		allDone := true
		for _, c := range cores {
			c.Tick(cycle, ms)
			if !c.Done() {
				allDone = false
			}
		}
		if allDone {
			break
		}
		// Fast-forward through globally idle stretches.
		if !ms.Busy() {
			next := int64(-1)
			for _, c := range cores {
				w := c.NextWake()
				if w < 0 {
					next = -1
					break
				}
				if next < 0 || w < next {
					next = w
				}
			}
			if next > cycle+1 {
				// Align to the next cycle before the wake so channel ticks
				// stay on their grid.
				cycle = next - 1
			}
		}
	}

	res := &Result{
		Cycles:       cycle,
		Ops:          ms.TotalOps(),
		LLCHits:      ms.LLCHits,
		LLCMisses:    ms.LLCMisses,
		LLCEvictions: ms.LLCEvictions,
		Prefetches:   ms.Prefetches,
		Seconds:      float64(cycle) / 4e9,
	}
	for _, ch := range ms.Channels() {
		res.RowHits += ch.RowHits
		res.RowMisses += ch.RowMisses
	}
	for _, c := range cores {
		done := c.DoneCycle
		if done == 0 {
			done = cycle
		}
		res.Cores = append(res.Cores, CoreResult{
			Name:         threads[c.ID].Name,
			Instructions: cfg.TargetInstructions,
			Cycles:       done,
			IPC:          float64(cfg.TargetInstructions) / float64(done),
			L1Hits:       c.L1Hits,
			L2Hits:       c.L2Hits,
			LLCHits:      c.LLCLevel,
			MemAccesses:  c.MemLevel,
		})
	}
	publishRun(res, cores, ms.Channels())
	pm.runSeconds.Since(t0)
	cfg.Trace.Record(cfg.TraceTrack, "perf.run", -1, 0, traceStart, cfg.Trace.Now())
	return res, nil
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

// WeightedSpeedup runs a workload's threads alone and together under a
// repair-capacity configuration and evaluates Equation (2) (SpeedupOf).
//
// aloneIPC may be supplied (from a previous call) to avoid recomputing the
// baselines; pass nil to compute them here.
func WeightedSpeedup(cfg SystemConfig, threads []trace.ThreadParams, aloneIPC []float64) (ws float64, alone []float64, shared *Result, err error) {
	if aloneIPC == nil {
		aloneIPC = make([]float64, len(threads))
		for i := range threads {
			soloCfg := cfg
			soloCfg.LockWays = 0
			soloCfg.LockBytes = 0
			res, err := Run(soloCfg, []trace.ThreadParams{threads[i]})
			if err != nil {
				return 0, nil, nil, err
			}
			aloneIPC[i] = res.Cores[0].IPC
		}
	}
	shared, err = Run(cfg, threads)
	if err != nil {
		return 0, nil, nil, err
	}
	return SpeedupOf(shared, aloneIPC), aloneIPC, shared, nil
}
