package perf

import (
	"fmt"
	"sort"

	"relaxfault/internal/obs"
)

// Process-wide performance-model telemetry, bound to the default registry
// at init so the perf.* families exist (zero-valued) in every snapshot.
//
// The simulators keep their per-run tallies in plain (non-atomic) fields —
// each Run owns its cores and memory system on one goroutine — and publish
// the totals here when the run completes, so the hot loop pays nothing for
// them. That holds for the occupancy histograms too: a queue's depth
// samples go into a depthTally, which publishRun adds to the shared
// histogram in one call.
var pm = struct {
	l1Hits, l1Misses   *obs.Counter
	l2Hits, l2Misses   *obs.Counter
	llcHits, llcMisses *obs.Counter
	llcEvictions       *obs.Counter
	llcPrefetches      *obs.Counter

	rowHits, rowConflicts                         *obs.Counter
	activates, precharges, reads, writes          *obs.Counter
	readQDepth, writeQDepth                       *obs.Histogram
	mshrDepth                                     *obs.Histogram
	stallMemCycles, stallLatCycles, computeCycles *obs.Counter

	cycles, instructions *obs.Counter
	runSeconds           *obs.Timer
}{
	l1Hits:        obs.Default().Counter("perf.l1.hits"),
	l1Misses:      obs.Default().Counter("perf.l1.misses"),
	l2Hits:        obs.Default().Counter("perf.l2.hits"),
	l2Misses:      obs.Default().Counter("perf.l2.misses"),
	llcHits:       obs.Default().Counter("perf.llc.hits"),
	llcMisses:     obs.Default().Counter("perf.llc.misses"),
	llcEvictions:  obs.Default().Counter("perf.llc.evictions"),
	llcPrefetches: obs.Default().Counter("perf.llc.prefetches"),

	rowHits:      obs.Default().Counter("perf.dram.row_hits"),
	rowConflicts: obs.Default().Counter("perf.dram.row_conflicts"),
	activates:    obs.Default().Counter("perf.dram.activates"),
	precharges:   obs.Default().Counter("perf.dram.precharges"),
	reads:        obs.Default().Counter("perf.dram.reads"),
	writes:       obs.Default().Counter("perf.dram.writes"),
	readQDepth:   obs.Default().Histogram("perf.mc.read_queue_depth", obs.DepthBuckets),
	writeQDepth:  obs.Default().Histogram("perf.mc.write_queue_depth", obs.DepthBuckets),
	mshrDepth:    obs.Default().Histogram("perf.core.mshr_depth", obs.DepthBuckets),

	stallMemCycles: obs.Default().Counter("perf.core.stall_mem_cycles"),
	stallLatCycles: obs.Default().Counter("perf.core.stall_latency_cycles"),
	computeCycles:  obs.Default().Counter("perf.core.compute_cycles"),

	cycles:       obs.Default().Counter("perf.cycles"),
	instructions: obs.Default().Counter("perf.instructions"),
	runSeconds:   obs.Default().Timer("perf.run_seconds"),
}

// publishRun folds one completed simulation's tallies into the registry.
// Per-bank row-locality families ("perf.dram.bank.c<chan>_r<rank>_b<bank>.*")
// register lazily here, so only geometries that actually ran appear.
func publishRun(res *Result, cores []*Core, channels []*Channel) {
	for ci, ch := range channels {
		for r := range ch.banks {
			for bi := range ch.banks[r] {
				b := &ch.banks[r][bi]
				if b.rowHits == 0 && b.rowConflicts == 0 {
					continue
				}
				prefix := fmt.Sprintf("perf.dram.bank.c%d_r%d_b%d.", ci, r, bi)
				obs.Default().Counter(prefix + "row_hits").Add(int64(b.rowHits))
				obs.Default().Counter(prefix + "row_conflicts").Add(int64(b.rowConflicts))
			}
		}
	}
	for _, ch := range channels {
		ch.readQDepth.publish(pm.readQDepth)
		ch.writeQDepth.publish(pm.writeQDepth)
	}
	for _, c := range cores {
		c.mshrDepth.publish(pm.mshrDepth)
	}
	publishTotals(res, cores)
}

// depthTally counts one queue's occupancy samples by depth: t[d] samples
// saw depth d.
type depthTally []int64

// observe records one sample.
func (t *depthTally) observe(depth int) {
	for depth >= len(*t) {
		*t = append(*t, 0)
	}
	(*t)[depth]++
}

// publish adds the tally to h, a histogram with obs.DepthBuckets bounds.
// Depths are integers, so the sum is exact and h ends as it would have
// had every sample been observed on its own.
func (t depthTally) publish(h *obs.Histogram) {
	counts := make([]int64, len(obs.DepthBuckets)+1)
	var sum int64
	for d, n := range t {
		counts[sort.SearchFloat64s(obs.DepthBuckets, float64(d))] += n
		sum += int64(d) * n
	}
	h.AddTally(counts, float64(sum))
}

// publishTotals folds the aggregate counters.
func publishTotals(res *Result, cores []*Core) {
	pm.llcHits.Add(int64(res.LLCHits))
	pm.llcMisses.Add(int64(res.LLCMisses))
	pm.llcEvictions.Add(int64(res.LLCEvictions))
	pm.llcPrefetches.Add(int64(res.Prefetches))
	pm.rowHits.Add(int64(res.RowHits))
	pm.rowConflicts.Add(int64(res.RowMisses))
	pm.activates.Add(int64(res.Ops.Activates))
	pm.precharges.Add(int64(res.Ops.Precharges))
	pm.reads.Add(int64(res.Ops.Reads))
	pm.writes.Add(int64(res.Ops.Writes))
	pm.cycles.Add(res.Cycles)
	for _, c := range cores {
		pm.instructions.Add(int64(c.Retired))
		pm.l1Hits.Add(int64(c.L1Hits))
		pm.l1Misses.Add(int64(c.L2Hits + c.LLCLevel + c.MemLevel))
		pm.l2Hits.Add(int64(c.L2Hits))
		pm.l2Misses.Add(int64(c.LLCLevel + c.MemLevel))
		pm.stallMemCycles.Add(int64(c.StallMemCycles))
		pm.stallLatCycles.Add(int64(c.StallLatCycles))
		pm.computeCycles.Add(int64(c.ComputeCycles))
	}
}
