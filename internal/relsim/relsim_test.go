package relsim

import (
	"reflect"
	"testing"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/fault"
	"relaxfault/internal/repair"
)

// sameResult compares two Results exactly (bitwise on the float fields,
// including skip records).
func sameResult(a, b Result) bool { return reflect.DeepEqual(a, b) }

// smallCfg returns a fast configuration with enough faults to exercise all
// code paths (high FIT, few nodes).
func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 2000
	cfg.Model.Rates = fault.CieloRates().Scale(10)
	cfg.Replicas = 1
	cfg.Seed = 42
	return cfg
}

func TestRunValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 0
	if _, err := Run(cfg); err == nil {
		t.Error("zero nodes accepted")
	}
	cfg = DefaultConfig()
	cfg.Model.Hours = -1
	if _, err := Run(cfg); err == nil {
		t.Error("invalid model accepted")
	}
}

func TestRunDeterminism(t *testing.T) {
	cfg := smallCfg()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(a, b) {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

// TestRunWorkerInvariance asserts the determinism invariant the checkpoint
// format depends on: for a fixed seed, Run produces bit-identical Results
// under Workers=1, Workers=4, and the GOMAXPROCS default. The node count
// spans several scheduling chunks so the chunk-ordered reduction is actually
// exercised (a single-chunk run would pass vacuously).
func TestRunWorkerInvariance(t *testing.T) {
	cfg := smallCfg()
	cfg.Nodes = 20000 // ~5 chunks of 4096
	results := make([]Result, 0, 3)
	for _, workers := range []int{1, 4, 0} {
		cfg.Workers = workers
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	for i := 1; i < len(results); i++ {
		if !sameResult(results[0], results[i]) {
			t.Errorf("worker count changed results:\n%+v\n%+v", results[0], results[i])
		}
	}
}

func TestReplaceNeverNeverReplaces(t *testing.T) {
	cfg := smallCfg()
	cfg.Policy = ReplaceNever
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Replacements != 0 {
		t.Errorf("ReplaceNever produced %f replacements", res.Replacements)
	}
	if res.FaultyNodes == 0 || res.DUEs == 0 {
		t.Error("10x FIT run produced no faults or DUEs; test is vacuous")
	}
}

func TestDUEsMonotoneInFITScale(t *testing.T) {
	base := smallCfg()
	base.Model.Rates = fault.CieloRates()
	base.Nodes = 16384
	low, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	hi := base
	hi.Model.Rates = fault.CieloRates().Scale(10)
	high, err := Run(hi)
	if err != nil {
		t.Fatal(err)
	}
	if high.DUEs <= low.DUEs {
		t.Errorf("10x FIT DUEs (%f) not above 1x (%f)", high.DUEs, low.DUEs)
	}
	if high.FaultyNodes <= low.FaultyNodes*3 {
		t.Errorf("10x FIT faulty nodes (%f) should far exceed 1x (%f)", high.FaultyNodes, low.FaultyNodes)
	}
}

func TestRepairReducesReplacementsUnderReplB(t *testing.T) {
	g := dram.Default8GiBNode()
	m, err := addrmap.New(g, 8192)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg()
	cfg.Policy = ReplaceAfterThreshold
	noRepair, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Planner = repair.NewRelaxFault(m, 16)
	cfg.WayLimit = 4
	withRepair, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if withRepair.Replacements > noRepair.Replacements*0.5 {
		t.Errorf("repair cut ReplB replacements only %f -> %f", noRepair.Replacements, withRepair.Replacements)
	}
	if withRepair.RepairedDIMMs == 0 {
		t.Error("no DIMMs recorded as repaired")
	}
}

func TestCoverageMonotoneInWayLimit(t *testing.T) {
	g := dram.Default8GiBNode()
	m, err := addrmap.New(g, 8192)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCoverageConfig()
	cfg.FaultyNodes = 1500
	cfg.Planners = []repair.Planner{repair.NewRelaxFault(m, 16), repair.NewFreeFault(m, 16, true)}
	res, err := CoverageStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, planner := range []string{"RelaxFault", "FreeFault+hash"} {
		c1 := res.Curve(planner, 1).Coverage()
		c4 := res.Curve(planner, 4).Coverage()
		c16 := res.Curve(planner, 16).Coverage()
		if !(c1 <= c4+1e-12 && c4 <= c16+1e-12) {
			t.Errorf("%s coverage not monotone in ways: %f %f %f", planner, c1, c4, c16)
		}
	}
}

func TestCoverageStudyValidation(t *testing.T) {
	cfg := DefaultCoverageConfig()
	cfg.Planners = nil
	if _, err := CoverageStudy(cfg); err == nil {
		t.Error("no planners accepted")
	}
	g := dram.Default8GiBNode()
	m, _ := addrmap.New(g, 8192)
	cfg = DefaultCoverageConfig()
	cfg.Planners = []repair.Planner{repair.NewRelaxFault(m, 16)}
	cfg.FaultyNodes = 0
	if _, err := CoverageStudy(cfg); err == nil {
		t.Error("zero faulty-node target accepted")
	}
}

// TestCoverageCapacityAccessors exercises the curve query helpers.
func TestCoverageCapacityAccessors(t *testing.T) {
	g := dram.Default8GiBNode()
	m, _ := addrmap.New(g, 8192)
	cfg := DefaultCoverageConfig()
	cfg.FaultyNodes = 800
	cfg.WayLimits = []int{4}
	cfg.Planners = []repair.Planner{repair.NewRelaxFault(m, 16)}
	res, err := CoverageStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Curve("RelaxFault", 4)
	if c == nil {
		t.Fatal("missing curve")
	}
	if c.FaultyNodes() < 800 {
		t.Errorf("collected %d faulty nodes", c.FaultyNodes())
	}
	if cov := c.CoverageAt(1 << 30); cov != c.Coverage() {
		t.Errorf("CoverageAt(huge)=%f vs Coverage()=%f", cov, c.Coverage())
	}
	if c.CoverageAt(0) > c.CoverageAt(1<<20) {
		t.Error("CoverageAt not monotone")
	}
	if cov := c.Coverage(); cov < 0.90 || cov >= 0.999 {
		t.Errorf("coverage %f at 4 ways, want 90%% reachable and 99.9%% not", cov)
	}
	if res.Curve("nonexistent", 1) != nil {
		t.Error("found nonexistent curve")
	}
}
