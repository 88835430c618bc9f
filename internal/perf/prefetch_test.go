package perf

import (
	"testing"

	"relaxfault/internal/trace"
)

// TestPrefetcherHelpsStreams: with the next-line prefetcher enabled, a
// streaming workload's weighted speedup must improve and demand misses must
// partially convert to prefetch fills.
func TestPrefetcherHelpsStreams(t *testing.T) {
	w := trace.WorkloadByName("SP")
	if w == nil {
		t.Fatal("missing SP")
	}
	base := DefaultSystemConfig()
	base.TargetInstructions = 300_000

	off, err := new(Machine).Run(base, w.Threads)
	if err != nil {
		t.Fatal(err)
	}
	pf := base
	pf.PrefetchDegree = 4
	on, err := new(Machine).Run(pf, w.Threads)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("prefetch off: IPC=%.3f misses=%d; on: IPC=%.3f misses=%d prefetches=%d",
		off.TotalIPC(), off.LLCMisses, on.TotalIPC(), on.LLCMisses, on.Prefetches)
	if on.Prefetches == 0 {
		t.Fatal("prefetcher never fired on a pure stream")
	}
	if on.TotalIPC() <= off.TotalIPC() {
		t.Errorf("prefetching did not help a stream: %.3f -> %.3f", off.TotalIPC(), on.TotalIPC())
	}
}

// TestPrefetcherHarmlessOnPointerChase: random pointer chasing has no
// streams; the prefetcher must stay quiet and not hurt.
func TestPrefetcherHarmlessOnPointerChase(t *testing.T) {
	w := trace.WorkloadByName("UA")
	if w == nil {
		t.Fatal("missing UA")
	}
	base := DefaultSystemConfig()
	base.TargetInstructions = 200_000
	off, err := new(Machine).Run(base, w.Threads)
	if err != nil {
		t.Fatal(err)
	}
	pf := base
	pf.PrefetchDegree = 4
	on, err := new(Machine).Run(pf, w.Threads)
	if err != nil {
		t.Fatal(err)
	}
	if float64(on.Prefetches) > 0.05*float64(on.LLCMisses) {
		t.Errorf("prefetcher fired %d times on pointer chasing (%d misses)", on.Prefetches, on.LLCMisses)
	}
	if on.TotalIPC() < off.TotalIPC()*0.97 {
		t.Errorf("prefetcher hurt pointer chasing: %.3f -> %.3f", off.TotalIPC(), on.TotalIPC())
	}
}
