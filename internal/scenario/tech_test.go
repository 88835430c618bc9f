package scenario

import (
	"strings"
	"testing"

	"relaxfault/internal/dram"
	"relaxfault/internal/fault"
	"relaxfault/internal/memtech"
	"relaxfault/internal/perf"
	"relaxfault/internal/power"
)

// TestTechnologyResolution pins the technology field's semantics: explicit
// names win, a technology without a geometry selects the tech's default
// node, and legacy specs (geometry only, or nothing) resolve to ddr3-1600.
func TestTechnologyResolution(t *testing.T) {
	sc := &Scenario{Name: "t", Kind: KindPerf, Technology: "ddr4-2400",
		Perf: &PerfSpec{Locks: []LockSpec{{Label: "base"}}}}
	if _, err := sc.Lower(); err != nil {
		t.Fatal(err)
	}
	if sc.Geometry != "ddr4-16gib" {
		t.Errorf("geometry %q, want the technology default ddr4-16gib", sc.Geometry)
	}
	tech, err := sc.Tech()
	if err != nil {
		t.Fatal(err)
	}
	if tech.Name != "ddr4-2400" {
		t.Errorf("tech %q, want ddr4-2400", tech.Name)
	}

	legacy := &Scenario{Name: "t", Kind: KindPerf,
		Perf: &PerfSpec{Locks: []LockSpec{{Label: "base"}}}}
	tech, err = legacy.Tech()
	if err != nil {
		t.Fatal(err)
	}
	if tech.Name != "ddr3-1600" {
		t.Errorf("legacy tech %q, want ddr3-1600", tech.Name)
	}

	bad := &Scenario{Name: "t", Kind: KindPerf, Technology: "sdram",
		Perf: &PerfSpec{Locks: []LockSpec{{Label: "base"}}}}
	_, err = bad.Lower()
	if err == nil || !strings.Contains(err.Error(), `unknown technology "sdram"`) {
		t.Errorf("bad technology error = %v", err)
	}
}

// TestTechnologyOmittedFromLegacyCanonical guards preset fingerprints: a
// scenario that never mentions a technology must not grow the field in its
// canonical form.
func TestTechnologyOmittedFromLegacyCanonical(t *testing.T) {
	sc, err := Preset("fig15")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := sc.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(doc), "technology") {
		t.Errorf("legacy canonical form mentions technology:\n%s", doc)
	}
}

// TestLowerDDR4Perf checks the ddr4 preset lowers onto the DDR4 technology
// end to end: bank-group timing, DDR4 geometry at 2 channels, and the DDR4
// energy table on every perf unit.
func TestLowerDDR4Perf(t *testing.T) {
	sc, err := Preset("ddr4")
	if err != nil {
		t.Fatal(err)
	}
	low, err := sc.Lower()
	if err != nil {
		t.Fatal(err)
	}
	if len(low.Perf) == 0 {
		t.Fatal("no perf units")
	}
	tech, err := memtech.ByName("ddr4-2400")
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range low.Perf {
		if u.Tech != "ddr4-2400" {
			t.Errorf("unit tech %q, want ddr4-2400", u.Tech)
		}
		if u.Base.Mem.Timing != tech.Timing {
			t.Errorf("unit timing %+v, want the registered DDR4 spec", u.Base.Mem.Timing)
		}
		if u.Base.Mem.Timing.BankGroups != 4 {
			t.Errorf("bank groups %d, want 4", u.Base.Mem.Timing.BankGroups)
		}
		want := tech.PerfGeometry()
		if u.Base.Mem.Geometry != want {
			t.Errorf("unit geometry %+v, want %+v", u.Base.Mem.Geometry, want)
		}
		if u.Energy != tech.Energy {
			t.Errorf("unit energy %+v, want %+v", u.Energy, tech.Energy)
		}
	}
}

// TestLowerLegacyPerfUnchanged pins the refactor's anchor on the perf path:
// fig15 lowers onto exactly the configuration the pre-technology code built
// (DefaultSystemConfig with the budget and seed applied).
func TestLowerLegacyPerfUnchanged(t *testing.T) {
	sc, err := Preset("fig15")
	if err != nil {
		t.Fatal(err)
	}
	low, err := sc.Lower()
	if err != nil {
		t.Fatal(err)
	}
	want := perf.DefaultSystemConfig()
	want.TargetInstructions = sc.Budget.Instructions
	want.Seed = *sc.Seed
	for _, u := range low.Perf {
		if u.Base != want {
			t.Fatalf("fig15 base config changed:\n got %+v\nwant %+v", u.Base, want)
		}
		if u.Energy != power.DDR3Energies() {
			t.Fatalf("fig15 energy %+v, want DDR3", u.Energy)
		}
	}
}

// TestLowerTechnologyRatesAndPPR checks the coverage path picks up the
// technology's FIT table and PPR provisioning.
func TestLowerTechnologyRatesAndPPR(t *testing.T) {
	sc := &Scenario{Name: "t", Kind: KindCoverage, Technology: "ddr4-2400",
		Coverage: &CoverageSpec{Studies: []CoverageStudy{{
			Planners:  []PlannerSpec{{Kind: "ppr"}},
			WayLimits: []int{1},
		}}}}
	low, err := sc.Lower()
	if err != nil {
		t.Fatal(err)
	}
	got := low.Coverage[0].Model.Rates
	if want := fault.DDR4Rates().Scale(1); got != want {
		t.Errorf("rates %+v, want the DDR4 field table", got)
	}
	if geo := low.Coverage[0].Model.Geometry; geo != dram.DDR4Node() {
		t.Errorf("geometry %+v, want the DDR4 node", geo)
	}

	// An explicit rates name still wins over the technology default.
	sc.Fault = &FaultSpec{Rates: "hopper"}
	low, err = sc.Lower()
	if err != nil {
		t.Fatal(err)
	}
	if got := low.Coverage[0].Model.Rates; got != fault.HopperRates().Scale(1) {
		t.Errorf("explicit rates %+v, want hopper", got)
	}
}

// TestResolverErrorsDeriveFromRegistries checks the "want ..." lists in the
// resolver errors come from the registries (satellite: no hand-maintained
// name lists).
func TestResolverErrorsDeriveFromRegistries(t *testing.T) {
	_, err := GeometryByName("ddr9")
	if err == nil {
		t.Fatal("bogus geometry accepted")
	}
	for _, name := range memtech.GeometryNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("geometry error %q missing registered name %s", err, name)
		}
	}

	tech, err := memtech.ByName("ddr3-1600")
	if err != nil {
		t.Fatal(err)
	}
	_, err = ratesByName(tech, "jaguar")
	if err == nil {
		t.Fatal("bogus rates accepted")
	}
	for _, name := range fault.RateTableNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("rates error %q missing registered table %s", err, name)
		}
	}

	_, err = policyByName("replace-never")
	if err == nil {
		t.Fatal("bogus policy accepted")
	}
	for _, e := range policies {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("policy error %q missing policy %s", err, e.name)
		}
	}
}

// TestLLCSetsDerivedFromPerfConfig is the magic-number satellite: the remap
// planners must index the same LLC the performance model simulates, sets
// and ways alike.
func TestLLCSetsDerivedFromPerfConfig(t *testing.T) {
	mem := perf.DefaultMemConfig()
	if llc.LLCSets != mem.LLCSets || llc.LLCWays != mem.LLCWays {
		t.Errorf("planner LLC %d sets x %d ways != perf LLC %d x %d", llc.LLCSets, llc.LLCWays, mem.LLCSets, mem.LLCWays)
	}
	if llc.LLCSets != 8192 || llc.LLCWays != 16 {
		t.Errorf("planner LLC %d sets x %d ways, want the 8MiB/16-way/64B values 8192 x 16", llc.LLCSets, llc.LLCWays)
	}
}
