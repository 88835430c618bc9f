package relsim

import (
	"testing"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/fault"
	"relaxfault/internal/repair"
	"relaxfault/internal/stats"
)

// allocWarmNodes is the warm-up window of the steady-state allocation tests:
// the trial kernels grow their pooled scratch (fault arena, row buffers,
// plan buffers, curve scratch) to the high-water mark of these nodes, and
// the measurement then replays the same nodes, where every buffer is already
// large enough. Steady state is therefore exactly reproducible: zero allocs.
const allocWarmNodes = 2048

// TestCoverageTrialAllocs pins the coverage trial kernel's steady-state
// allocation count at zero: sampling, permanent-fault filtering, planning
// (RelaxFault, FreeFault and PPR), and outcome accumulation reuse pooled
// buffers once warmed. A regression here silently multiplies by the millions
// of trials a campaign runs.
func TestCoverageTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; steady-state counts only hold without it")
	}
	m, err := addrmap.New(dram.Default8GiBNode(), 8192)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCoverageConfig()
	// 10x FIT: most trials are faulty, so the planners — not just the
	// sampler — are on the measured path.
	cfg.Model.Rates = cfg.Model.Rates.Scale(10)
	cfg.Planners = []repair.Planner{
		must(repair.NewPPR(m.Geometry(), 0, 0)),
		must(repair.NewFreeFault(m, 16, true)),
		must(repair.NewRelaxFault(m, 16, repair.RelaxFaultOptions{})),
	}
	model, err := fault.NewModel(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	nCurves := len(cfg.Planners) * len(cfg.WayLimits)
	fk := stats.NewRNG(cfg.Seed).Forker()
	sc := &covScratch{model: model}
	acc := &covChunk{Curves: make([]covCurveChunk, nCurves)}
	for i := 0; i < allocWarmNodes; i++ {
		cfg.coverageTrial(fk, i, acc, sc)
	}
	node := 0
	allocs := testing.AllocsPerRun(allocWarmNodes, func() {
		// Reset the accumulator in place so its growth is not charged to
		// the trial (a real chunk grows it once per chunk).
		acc.Faulty = 0
		for c := range acc.Curves {
			acc.Curves[c].Repairable = 0
			acc.Curves[c].Caps = acc.Curves[c].Caps[:0]
		}
		cfg.coverageTrial(fk, node, acc, sc)
		node = (node + 1) % allocWarmNodes
	})
	if allocs != 0 {
		t.Fatalf("coverage trial steady state allocates %.2f objects/trial, want 0", allocs)
	}
}

// TestRunTrialAllocs pins the reliability-run trial kernel's steady-state
// allocation count at zero: substream derivation, sampling, incremental
// repair, and error analysis all run out of per-worker scratch.
func TestRunTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; steady-state counts only hold without it")
	}
	m, err := addrmap.New(dram.Default8GiBNode(), 8192)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Model.Rates = cfg.Model.Rates.Scale(10)
	cfg.Planner = must(repair.NewRelaxFault(m, 16, repair.RelaxFaultOptions{}))
	cfg.WayLimit = 1
	model, err := fault.NewModel(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := newNodeSim(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res runPayload
	for i := 0; i < allocWarmNodes; i++ {
		sim.runTrial(i, &res)
	}
	node := 0
	allocs := testing.AllocsPerRun(allocWarmNodes, func() {
		res = runPayload{}
		sim.runTrial(node, &res)
		node = (node + 1) % allocWarmNodes
	})
	if allocs != 0 {
		t.Fatalf("run trial steady state allocates %.2f objects/trial, want 0", allocs)
	}
}
