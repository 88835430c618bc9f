package perf_test

import (
	"runtime"
	"testing"

	"relaxfault/internal/memtech"
	"relaxfault/internal/perf"
	"relaxfault/internal/trace"
)

// TestMachineReuseMatchesFresh runs a sequence of configurations on one
// Machine, and each of them again on a new Machine. A reset machine must not
// be told apart from a new one: each run must agree on the Result, each
// core's stall and compute cycles, the MSHR and queue-depth tallies, and the
// whole final machine but its request free list.
//
// Per workload the sequence changes the thread count (8, 1, 8), the LLC lock
// (none, 100 KiB, 4 ways, 1 way), the prefetch degree (0, 4) and the
// technology (DDR3-1600, DDR4-2400, DDR3-1600: the memory system is rebuilt
// twice while the cores are kept), with a configuration that fails Validate
// in the middle. One machine runs every workload's sequence. -short keeps two
// workloads and a shorter budget.
func TestMachineReuseMatchesFresh(t *testing.T) {
	ddr4, err := memtech.ByName("ddr4-2400")
	if err != nil {
		t.Fatal(err)
	}
	workloads := trace.Workloads()
	instructions := uint64(20_000)
	if testing.Short() {
		workloads = []trace.Workload{*trace.WorkloadByName("SP"), *trace.WorkloadByName("MEM")}
		instructions = 5_000
	}
	steps := []struct {
		name     string
		alone    bool
		ways     int
		bytes    int64
		prefetch int
		ddr4     bool
	}{
		{name: "ddr3/none"},
		{name: "ddr3/alone", alone: true},
		{name: "ddr3/100KiB", bytes: 100 << 10},
		{name: "ddr3/4way", ways: 4},
		{name: "invalid", ways: 1, bytes: 100 << 10},
		{name: "ddr3/1way/prefetch4", ways: 1, prefetch: 4},
		{name: "ddr4/1way/prefetch4", ways: 1, prefetch: 4, ddr4: true},
		{name: "ddr4/alone/prefetch4", alone: true, prefetch: 4, ddr4: true},
		{name: "ddr3/100KiB/prefetch4", bytes: 100 << 10, prefetch: 4},
	}
	var m perf.Machine
	for _, w := range workloads {
		for _, st := range steps {
			cfg := perf.DefaultSystemConfig()
			cfg.TargetInstructions = instructions
			cfg.Seed = 7
			cfg.LockWays, cfg.LockBytes = st.ways, st.bytes
			cfg.PrefetchDegree = st.prefetch
			if st.ddr4 {
				cfg.Mem.Geometry = ddr4.PerfGeometry()
				cfg.Mem.Timing = ddr4.Timing
			}
			threads := w.Threads
			if st.alone {
				threads = threads[:1]
			}
			t.Run(w.Name+"/"+st.name, func(t *testing.T) {
				got, err := perf.Simulate(&m, cfg, threads, false)
				want, wantErr := perf.Simulate(new(perf.Machine), cfg, threads, false)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("reused machine: error %v; new machine: error %v", err, wantErr)
				}
				if err != nil {
					if cfg.Validate() == nil {
						t.Fatalf("valid configuration failed: %v", err)
					}
					return
				}
				checkSameRun(t, "reused machine", got, "new machine", want)
				if !perf.SameMachine(got, want) {
					t.Fatal("final machine state differs between the reused machine and a new one")
				}
			})
		}
	}
}

// TestMachineRerunAllocation checks that a Machine reuses its memory system
// and cores: running a configuration a second time allocates under 64 KiB
// (the Result, the trace generators, the queues and tallies that regrow, and
// requests for those the first run left in flight), where a new machine
// allocates its 2.2 MB LLC and every core's L1 and L2.
func TestMachineRerunAllocation(t *testing.T) {
	cfg := perf.DefaultSystemConfig()
	cfg.TargetInstructions = 30_000
	cfg.LockWays = 1
	threads := trace.WorkloadByName("SP").Threads
	var m perf.Machine
	if _, err := m.Run(cfg, threads); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := m.Run(cfg, threads); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("second run on one machine allocated %d bytes, want under 64 KiB", got)
	}
}
