package relsim

import (
	"testing"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/fault"
	"relaxfault/internal/obs"
	"relaxfault/internal/repair"
	"relaxfault/internal/stats"
)

// benchCoverageConfig is the Monte Carlo hot-path configuration: the
// paper's three engines at the default way limits, accelerated fault rates
// so trials regularly exercise the planners rather than sampling nothing.
// The rates are 10x FIT, as in fig11 and TestCoverageTrialAllocs: about
// 71% of nodes are faulty, against about 12% at 1x.
func benchCoverageConfig(b *testing.B) CoverageConfig {
	b.Helper()
	m, err := addrmap.New(dram.Default8GiBNode(), 8192)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultCoverageConfig()
	cfg.Model.Rates = cfg.Model.Rates.Scale(10)
	cfg.Planners = []repair.Planner{
		repair.NewPPR(m.Geometry()),
		repair.NewFreeFault(m, 16, true),
		repair.NewRelaxFault(m, 16),
	}
	cfg.FaultyNodes = 200
	cfg.MaxNodes = 1 << 20
	return cfg
}

// BenchmarkCoverageTrial measures one node sample through sampling and all
// planners — the per-trial cost the sharded engine multiplies by millions.
func BenchmarkCoverageTrial(b *testing.B) {
	cfg := benchCoverageConfig(b)
	model, err := fault.NewModel(cfg.Model)
	if err != nil {
		b.Fatal(err)
	}
	nCurves := len(cfg.Planners) * len(cfg.WayLimits)
	cfg.planHists = make([]*obs.Histogram, len(cfg.Planners))
	fk := stats.NewRNG(cfg.Seed).Forker()
	sc := &covScratch{}
	acc := &covChunk{Curves: make([]covCurveChunk, nCurves)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.coverageTrial(model, fk, i, acc, sc)
	}
}

// BenchmarkRunTrial measures one full-lifetime reliability trial (fault
// arrivals, incremental repair, error analysis) — the Run hot path.
func BenchmarkRunTrial(b *testing.B) {
	m, err := addrmap.New(dram.Default8GiBNode(), 8192)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Planner = repair.NewRelaxFault(m, 16)
	cfg.WayLimit = 1
	model, err := fault.NewModel(cfg.Model)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := newNodeSim(model, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var res runPayload
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.runTrial(i, &res)
	}
}
