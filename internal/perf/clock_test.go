package perf_test

import (
	"fmt"
	"reflect"
	"testing"

	"relaxfault/internal/memtech"
	"relaxfault/internal/perf"
	"relaxfault/internal/trace"
)

// TestEventClockMatchesCycleLoop runs each configuration twice over the same
// cores and memory system: once with Run's event clock and once with a
// reference loop that ticks every core on every CPU cycle and every channel
// on every memory-clock edge. The event clock only skips cycles on which
// nothing acts, so the two must agree on everything: the Result, each
// core's stall and compute cycles, the MSHR and queue-depth tallies, and
// the whole final machine state. Run itself must return the same Result.
//
// The configurations are every Table 4 workload's shared run under each
// Figure 15 lock and its first thread alone, on DDR3-1600 without a
// prefetcher, with a degree-4 prefetcher, and on DDR4-2400 timing. -short
// keeps two workloads, two locks and a shorter budget.
func TestEventClockMatchesCycleLoop(t *testing.T) {
	ddr4, err := memtech.ByName("ddr4-2400")
	if err != nil {
		t.Fatal(err)
	}
	type lock struct {
		name  string
		ways  int
		bytes int64
	}
	locks := []lock{{"none", 0, 0}, {"100KiB", 0, 100 << 10}, {"1way", 1, 0}, {"4way", 4, 0}}
	workloads := trace.Workloads()
	instructions := uint64(20_000)
	if testing.Short() {
		locks = []lock{locks[0], locks[3]}
		workloads = []trace.Workload{*trace.WorkloadByName("SP"), *trace.WorkloadByName("MEM")}
		instructions = 5_000
	}
	variants := []struct {
		name string
		set  func(*perf.SystemConfig)
	}{
		{"ddr3", func(*perf.SystemConfig) {}},
		{"prefetch4", func(cfg *perf.SystemConfig) { cfg.PrefetchDegree = 4 }},
		{"ddr4-2400", func(cfg *perf.SystemConfig) {
			cfg.Mem.Geometry = ddr4.PerfGeometry()
			cfg.Mem.Timing = ddr4.Timing
		}},
	}
	for _, v := range variants {
		for _, w := range workloads {
			base := perf.DefaultSystemConfig()
			base.TargetInstructions = instructions
			base.Seed = 7
			v.set(&base)
			t.Run(fmt.Sprintf("%s/%s/alone", v.name, w.Name), func(t *testing.T) {
				checkClocksAgree(t, base, w.Threads[:1])
			})
			for _, l := range locks {
				cfg := base
				cfg.LockWays, cfg.LockBytes = l.ways, l.bytes
				t.Run(fmt.Sprintf("%s/%s/%s", v.name, w.Name, l.name), func(t *testing.T) {
					checkClocksAgree(t, cfg, w.Threads)
				})
			}
		}
	}
}

func checkClocksAgree(t *testing.T, cfg perf.SystemConfig, threads []trace.ThreadParams) {
	t.Helper()
	ev, err := perf.Simulate(new(perf.Machine), cfg, threads, false)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := perf.Simulate(new(perf.Machine), cfg, threads, true)
	if err != nil {
		t.Fatal(err)
	}
	checkSameRun(t, "event clock", ev, "cycle loop", ref)
	if !reflect.DeepEqual(ev.Machine, ref.Machine) {
		t.Fatal("final machine state differs between the event clock and the cycle loop")
	}
	res, err := new(perf.Machine).Run(cfg, threads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, ref.Result) {
		t.Fatalf("Run returned %+v, cycle loop %+v", res, ref.Result)
	}
}

// checkSameRun fails t unless two simulations of one configuration agree on
// the Result and on every tally Run publishes rather than returns.
func checkSameRun(t *testing.T, gotName string, got *perf.Outcome, refName string, ref *perf.Outcome) {
	t.Helper()
	for _, f := range []struct {
		name     string
		got, ref any
	}{
		{"Result", got.Result, ref.Result},
		{"stall_mem cycles", got.StallMem, ref.StallMem},
		{"stall_latency cycles", got.StallLat, ref.StallLat},
		{"compute cycles", got.Compute, ref.Compute},
		{"MSHR depths", got.MSHRDepth, ref.MSHRDepth},
		{"read-queue depths", got.ReadQDepth, ref.ReadQDepth},
		{"write-queue depths", got.WriteQDepth, ref.WriteQDepth},
	} {
		if !reflect.DeepEqual(f.got, f.ref) {
			t.Fatalf("%s: %s %+v, %s %+v", f.name, gotName, f.got, refName, f.ref)
		}
	}
}
