package relsim

import (
	"testing"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/repair"
)

// TestCoverageCalibration checks that the calibrated fault-shape model
// reproduces the paper's headline coverage numbers (Figures 8 and 10)
// within a few points: RelaxFault ~90% at 1 way, ~97% at 4 ways; FreeFault
// ~84% (hashed) and ~74% (unhashed) at 1 way; PPR ~73%.
func TestCoverageCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration study is slow")
	}
	g := dram.Default8GiBNode()
	m, err := addrmap.New(g, 8192)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCoverageConfig()
	cfg.FaultyNodes = 8000
	cfg.Planners = []repair.Planner{
		must(repair.NewRelaxFault(m, 16, repair.RelaxFaultOptions{})),
		must(repair.NewFreeFault(m, 16, true)),
		must(repair.NewFreeFault(m, 16, false)),
		must(repair.NewPPR(g, 0, 0)),
	}
	res, err := CoverageStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("faulty fraction: %.3f (paper: ~0.12)", res.FaultyFraction)
	for _, c := range res.Curves {
		t.Logf("%-16s way<=%-2d coverage=%.3f repairable-p90=%.0fB",
			c.Planner, c.WayLimit, c.Coverage(), c.CapacityQuantile(0.90))
	}
	check := func(planner string, wl int, lo, hi float64) {
		c := res.Curve(planner, wl)
		if c == nil {
			t.Fatalf("missing curve %s/%d", planner, wl)
		}
		if cov := c.Coverage(); cov < lo || cov > hi {
			t.Errorf("%s way<=%d coverage %.3f outside [%.2f, %.2f]", planner, wl, cov, lo, hi)
		}
	}
	check("RelaxFault", 1, 0.86, 0.94)
	check("RelaxFault", 4, 0.94, 0.99)
	check("FreeFault+hash", 1, 0.80, 0.88)
	check("FreeFault", 1, 0.70, 0.78)
	check("PPR", 1, 0.69, 0.77)

	if fr := res.FaultyFraction; fr < 0.08 || fr > 0.16 {
		t.Errorf("faulty fraction %.3f outside [0.08, 0.16] (paper: ~0.12)", fr)
	}
}
