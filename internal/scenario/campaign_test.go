package scenario

import (
	"strings"
	"testing"

	"relaxfault/internal/harness"
	"relaxfault/internal/relsim"
)

// campaignCov is a coverage scenario with every knob the campaign key must
// ignore set to a non-default value.
func campaignCov() *Scenario {
	sc := minimalCoverage()
	sc.Budget = Budget{FaultyNodes: 1234}
	return sc
}

// campaignRel is a one-cell reliability scenario at a small budget.
func campaignRel() *Scenario {
	return &Scenario{
		Name: "r", Kind: KindReliability,
		Budget:      Budget{Nodes: 9000, Replicas: 3},
		Reliability: &ReliabilitySpec{Cells: []ReliabilityCell{{Label: "c", Policy: "replace-after-due"}}},
	}
}

// TestCampaignFingerprintElasticAxes: the campaign key must be invariant
// under the elastic trial-budget axes (coverage sample size, replica
// count, seed) and sensitive to everything else.
func TestCampaignFingerprintElasticAxes(t *testing.T) {
	base, err := campaignCov().CampaignFingerprint()
	if err != nil {
		t.Fatal(err)
	}

	elastic := map[string]func(*Scenario){
		"faulty_nodes": func(sc *Scenario) { sc.Budget.FaultyNodes = 99999 },
		"replicas":     func(sc *Scenario) { sc.Budget.Replicas = 99 },
		"seed":         func(sc *Scenario) { s := uint64(123); sc.Seed = &s },
	}
	for name, mutate := range elastic {
		sc := campaignCov()
		mutate(sc)
		fp, err := sc.CampaignFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp != base {
			t.Errorf("elastic axis %s changed the campaign key: %s vs %s", name, fp, base)
		}
	}

	structural := map[string]func(*Scenario){
		"nodes":        func(sc *Scenario) { sc.Budget.Nodes = 1000 },
		"instructions": func(sc *Scenario) { sc.Budget.Instructions = 42 },
		"technology":   func(sc *Scenario) { sc.Technology = "ddr4-2400" },
		"planner":      func(sc *Scenario) { sc.Coverage.Studies[0].Planners[0].Kind = "freefault" },
	}
	for name, mutate := range structural {
		sc := campaignCov()
		mutate(sc)
		fp, err := sc.CampaignFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp == base {
			t.Errorf("structural axis %s did not change the campaign key", name)
		}
	}

	// The statistics block, a reliability scenario's, is structural too.
	relBase, err := campaignRel().CampaignFingerprint()
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*relsim.StatsConfig{
		"target_ci": {Estimator: "naive", TargetCI: 0.5},
		"estimator": {Estimator: "importance"},
	} {
		sc := campaignRel()
		sc.Statistics = st
		fp, err := sc.CampaignFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp == relBase {
			t.Errorf("structural axis %s did not change the campaign key", name)
		}
	}
}

// TestCampaignFingerprintVsFingerprint: the full scenario fingerprint must
// still distinguish budgets the campaign key collapses — it names the
// exact entry inside a key's directory.
func TestCampaignFingerprintVsFingerprint(t *testing.T) {
	a, b := campaignCov(), campaignCov()
	b.Budget.FaultyNodes = 99999
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa == fb {
		t.Error("full fingerprint collapsed different budgets")
	}
}

func TestBudgetTrials(t *testing.T) {
	cov := campaignCov()
	cov.Normalize()
	if got := cov.BudgetTrials(); got != 1234 {
		t.Errorf("coverage BudgetTrials = %d, want 1234", got)
	}

	rel := campaignRel()
	rel.Normalize()
	if got := rel.BudgetTrials(); got != 27000 {
		t.Errorf("reliability BudgetTrials = %d, want 27000", got)
	}
}

// TestSections: the planned checkpoint sections must carry the same names
// and fingerprints the runner will use, so a store entry's artifacts line
// up with a later resume.
func TestSections(t *testing.T) {
	secs := sections(t, campaignCov())
	if len(secs) != 1 {
		t.Fatalf("coverage sections = %d, want 1", len(secs))
	}
	s := secs[0]
	if !strings.HasPrefix(s.Name, "coverage-") {
		t.Errorf("section name = %q, want coverage- prefix", s.Name)
	}
	if s.Size != 2048 {
		t.Errorf("coverage chunk size = %d, want 2048", s.Size)
	}
	if s.Trials != 5_000_000 {
		t.Errorf("coverage total trials = %d, want the 5M node cap", s.Trials)
	}

	rel := &Scenario{
		Name: "r", Kind: KindReliability,
		Budget: Budget{Nodes: 9000, Replicas: 2},
		Reliability: &ReliabilitySpec{Cells: []ReliabilityCell{
			{Label: "a", Policy: "replace-after-due"},
			{Label: "b", Policy: "replace-after-threshold"},
		}},
	}
	secs = sections(t, rel)
	if len(secs) != 2 {
		t.Fatalf("reliability sections = %d, want one per cell", len(secs))
	}
	for _, s := range secs {
		if !strings.HasPrefix(s.Name, "run-") {
			t.Errorf("section name = %q, want run- prefix", s.Name)
		}
		if s.Size != 4096 {
			t.Errorf("reliability chunk size = %d, want 4096", s.Size)
		}
		if s.Trials != 18000 {
			t.Errorf("reliability total trials = %d, want 18000", s.Trials)
		}
	}
	if secs[0].Name == secs[1].Name {
		t.Error("cells share a section name")
	}

	perf := &Scenario{Name: "p", Kind: KindPerf, Perf: &PerfSpec{Locks: []LockSpec{{Label: "base"}}}}
	if secs := sections(t, perf); len(secs) != 0 {
		t.Errorf("perf sections = %d, want 0 (perf runs keep no checkpoint)", len(secs))
	}
}

// sections lowers sc and returns its planned checkpoint sections.
func sections(t *testing.T, sc *Scenario) []harness.Section {
	t.Helper()
	low, err := sc.Lower()
	if err != nil {
		t.Fatal(err)
	}
	return low.Sections()
}
