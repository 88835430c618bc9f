package relsim

import (
	"testing"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/fault"
	"relaxfault/internal/repair"
)

// TestCoverageCalibration10x checks the 10x-FIT sensitivity study
// (Figure 11): RelaxFault stays near 84% at 1 way and above 95% at 4 ways,
// while PPR collapses to about 63% as accumulated faults exhaust its one
// spare row per bank group.
func TestCoverageCalibration10x(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration study is slow")
	}
	g := dram.Default8GiBNode()
	m, err := addrmap.New(g, 8192)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultCoverageConfig()
	cfg.Model.Rates = fault.CieloRates().Scale(10)
	cfg.FaultyNodes = 8000
	cfg.Planners = []repair.Planner{
		repair.NewRelaxFault(m, 16),
		repair.NewFreeFault(m, 16, true),
		repair.NewPPR(g),
	}
	res, err := CoverageStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("faulty fraction: %.3f (paper: ~0.71)", res.FaultyFraction)
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
	check("RelaxFault", 1, 0.78, 0.90)
	check("RelaxFault", 4, 0.91, 0.98)
	check("PPR", 1, 0.56, 0.70)

	if fr := res.FaultyFraction; fr < 0.60 || fr > 0.80 {
		t.Errorf("faulty fraction %.3f outside [0.60, 0.80] (paper: ~0.71)", fr)
	}
}
