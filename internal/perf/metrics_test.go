package perf

import (
	"strings"
	"testing"

	"relaxfault/internal/obs"
	"relaxfault/internal/trace"
)

// snapValue reads one counter's value out of a registry snapshot.
func snapValue(t *testing.T, snap map[string]obs.MetricSnapshot, name string) float64 {
	t.Helper()
	ms, ok := snap[name]
	if !ok {
		t.Fatalf("metric %q missing from snapshot", name)
	}
	if ms.Value == nil {
		t.Fatalf("metric %q has no scalar value (type %s)", name, ms.Type)
	}
	return *ms.Value
}

// TestRunMetricsConsistentWithResult is the end-to-end telemetry check: a
// metrics-enabled simulation must export cache and bank-conflict counters
// that agree exactly with the Result it returns, and the exported
// cycle/instruction totals must reproduce the reported IPC.
//
// (The issue sketches this against a fig13 run, but fig13 is a pure
// reliability experiment that never touches the performance model; the
// performance families it exports are legitimately zero there. The perf.*
// consistency claim is meaningful — and testable — against a perf.Run.)
func TestRunMetricsConsistentWithResult(t *testing.T) {
	w := trace.WorkloadByName("SP")
	if w == nil {
		t.Fatal("missing workload SP")
	}
	cfg := DefaultSystemConfig()
	cfg.TargetInstructions = 100_000

	before := obs.Default().Snapshot()
	res, err := new(Machine).Run(cfg, w.Threads)
	if err != nil {
		t.Fatal(err)
	}
	after := obs.Default().Snapshot()

	delta := func(name string) float64 {
		return snapValue(t, after, name) - snapValue(t, before, name)
	}

	// Exact agreement between the exported counters and the run result.
	exact := []struct {
		name string
		want float64
	}{
		{"perf.llc.hits", float64(res.LLCHits)},
		{"perf.llc.misses", float64(res.LLCMisses)},
		{"perf.llc.evictions", float64(res.LLCEvictions)},
		{"perf.dram.row_hits", float64(res.RowHits)},
		{"perf.dram.row_conflicts", float64(res.RowMisses)},
		{"perf.dram.activates", float64(res.Ops.Activates)},
		{"perf.cycles", float64(res.Cycles)},
	}
	for _, e := range exact {
		if got := delta(e.name); got != e.want {
			t.Errorf("%s: metric delta %v, result reports %v", e.name, got, e.want)
		}
	}

	// The exported hit counters must describe a real cache: hits+misses
	// equals total LLC demand traffic, and the hit rate is a proper
	// fraction.
	hits, misses := delta("perf.llc.hits"), delta("perf.llc.misses")
	if hits+misses <= 0 {
		t.Fatal("no LLC traffic recorded")
	}
	hitRate := hits / (hits + misses)
	if hitRate < 0 || hitRate > 1 {
		t.Fatalf("impossible LLC hit rate %v", hitRate)
	}

	// IPC cross-check: instructions/cycles from the metrics must equal the
	// per-core IPC sum the simulator reports (all cores share a target and
	// stop together only approximately, so compare via totals per core).
	var wantInstr float64
	for _, c := range res.Cores {
		wantInstr += float64(c.Instructions)
	}
	if got := delta("perf.instructions"); got < wantInstr {
		t.Errorf("perf.instructions delta %v < retired target %v", got, wantInstr)
	}
	metricIPC := delta("perf.instructions") / delta("perf.cycles")
	if metricIPC <= 0 {
		t.Fatalf("non-positive IPC %v from metrics", metricIPC)
	}
	// Aggregate IPC from the metrics must land near the per-core IPC sum.
	// They are not identical — cores keep retiring after their statistics
	// freeze at the target — so this is a sanity band, not a golden value.
	if sumIPC := res.TotalIPC(); metricIPC > sumIPC*1.25 || metricIPC < sumIPC*0.75 {
		t.Errorf("metrics IPC %v inconsistent with reported per-core IPC sum %v", metricIPC, sumIPC)
	}

	// The queue-depth histograms hold one sample per enqueue: a DRAM read
	// per demand miss or prefetch, an MSHR entry per core memory access,
	// and a write per dirty LLC eviction.
	samples := func(name string) int64 {
		a, b := after[name], before[name]
		if a.Count == nil || b.Count == nil {
			t.Fatalf("%s is not a histogram", name)
		}
		return *a.Count - *b.Count
	}
	var memAccesses uint64
	for _, c := range res.Cores {
		memAccesses += c.MemAccesses
	}
	if got, want := samples("perf.mc.read_queue_depth"), int64(res.LLCMisses+res.Prefetches); got != want {
		t.Errorf("perf.mc.read_queue_depth: %d samples, want LLC misses + prefetches = %d", got, want)
	}
	if got, want := samples("perf.core.mshr_depth"), int64(memAccesses); got != want {
		t.Errorf("perf.core.mshr_depth: %d samples, want the cores' memory accesses = %d", got, want)
	}
	if got, most := samples("perf.mc.write_queue_depth"), int64(res.LLCEvictions); got > most {
		t.Errorf("perf.mc.write_queue_depth: %d samples, more than the %d LLC evictions", got, most)
	}

	// The lazily-registered per-bank families must partition the aggregate
	// row-locality counters exactly.
	var bankHits, bankConflicts float64
	for name, ms := range after {
		if !strings.HasPrefix(name, "perf.dram.bank.") || ms.Value == nil {
			continue
		}
		d := *ms.Value
		if b, ok := before[name]; ok && b.Value != nil {
			d -= *b.Value
		}
		switch {
		case strings.HasSuffix(name, ".row_hits"):
			bankHits += d
		case strings.HasSuffix(name, ".row_conflicts"):
			bankConflicts += d
		}
	}
	if bankHits != float64(res.RowHits) || bankConflicts != float64(res.RowMisses) {
		t.Errorf("per-bank row counters (%v hits, %v conflicts) do not partition the aggregates (%d, %d)",
			bankHits, bankConflicts, res.RowHits, res.RowMisses)
	}
}
