package scenario

// The preset registry re-expresses every experiment of the paper's
// evaluation — and this repo's extensions — as a named scenario. The specs
// below are the experiments; internal/experiments keeps only presentation
// (figure-shaped result structs and String methods) on top of the generic
// runner, and the golden differential suite pins each preset's output
// byte-identical to the pre-scenario experiment code.

import (
	"fmt"
	"sort"

	"relaxfault/internal/relsim"
)

// Entry describes one registry preset.
type Entry struct {
	Name        string
	Kind        Kind
	Description string
	build       func() *Scenario
}

func fp(v float64) *float64 { return &v }
func bp(v bool) *bool       { return &v }

// Planner shorthands shared by the presets (values, not pointers: each use
// site gets its own copy).
var (
	plRelax    = PlannerSpec{Kind: "relaxfault"}
	plFFHash   = PlannerSpec{Kind: "freefault"}
	plFFNoHash = PlannerSpec{Kind: "freefault", Hash: bp(false)}
	plPPR      = PlannerSpec{Kind: "ppr"}
)

// reliabilityCombos is the repair-mechanism axis of Figures 12-14:
// no-repair plus {PPR, FreeFault, RelaxFault} x {1-way, 4-way}, each cell
// pinned to a FIT scale and replacement policy.
func reliabilityCombos(fitScale float64, policy string) []ReliabilityCell {
	f := &FaultSpec{FITScale: fitScale}
	return []ReliabilityCell{
		{Label: "no-repair", WayLimit: 0, Policy: policy, Fault: f},
		{Label: "PPR", Planner: &PlannerSpec{Kind: "ppr"}, WayLimit: 1, Policy: policy, Fault: f},
		{Label: "FreeFault-1way", Planner: &PlannerSpec{Kind: "freefault"}, WayLimit: 1, Policy: policy, Fault: f},
		{Label: "FreeFault-4way", Planner: &PlannerSpec{Kind: "freefault"}, WayLimit: 4, Policy: policy, Fault: f},
		{Label: "RelaxFault-1way", Planner: &PlannerSpec{Kind: "relaxfault"}, WayLimit: 1, Policy: policy, Fault: f},
		{Label: "RelaxFault-4way", Planner: &PlannerSpec{Kind: "relaxfault"}, WayLimit: 4, Policy: policy, Fault: f},
	}
}

// fig9Cells is the fault-model sensitivity grid: the acceleration sweep at
// a fixed 0.1% fraction, then the fraction sweep at fixed 100x. The specs
// carry the raw sweep values (an accel_factor of 0 lowers to 1, but the
// presentation reports the swept value).
func fig9Cells() []ReliabilityCell {
	var cells []ReliabilityCell
	for _, a := range []float64{0, 50, 100, 150, 200} {
		cells = append(cells, ReliabilityCell{
			Label:    fmt.Sprintf("accel=%gx", a),
			WayLimit: 1,
			Fault:    &FaultSpec{AccelFactor: fp(a), AccelNodeFrac: fp(0.001), AccelDIMMFrac: fp(0.001)},
		})
	}
	for _, f := range []float64{0, 0.0001, 0.001, 0.002, 0.003, 0.004, 0.005} {
		cells = append(cells, ReliabilityCell{
			Label:    fmt.Sprintf("frac=%g", f),
			WayLimit: 1,
			Fault:    &FaultSpec{AccelFactor: fp(100), AccelNodeFrac: fp(f), AccelDIMMFrac: fp(f)},
		})
	}
	return cells
}

// coverageVsCapacity is the Figure 10/11 shape at a FIT multiplier.
func coverageVsCapacity(fitScale float64) *CoverageSpec {
	return &CoverageSpec{Studies: []CoverageStudy{{
		Fault:     &FaultSpec{FITScale: fitScale},
		Planners:  []PlannerSpec{plPPR, plFFHash, plRelax},
		WayLimits: []int{1, 4, 16},
	}}}
}

// rareFault is the fault model of the rare-event estimator presets: a fifth
// of the field-study FIT rates with dynamic FIT acceleration disabled, so a
// node-level DUE is a genuinely rare (~1.4e-6 per trial) homogeneous event —
// the regime where the naive estimator sees no events at the quick budget
// while importance sampling and stratification still measure it.
func rareFault() *FaultSpec {
	return &FaultSpec{
		FITScale:      0.2,
		AccelFactor:   fp(1),
		AccelNodeFrac: fp(0),
		AccelDIMMFrac: fp(0),
	}
}

// perfLocks is the Figure 15/16 repair-capacity axis; locks[0] is the
// required unlocked baseline.
func perfLocks() []LockSpec {
	return []LockSpec{
		{Label: "no-repair"},
		{Label: "100KiB", Bytes: 100 << 10},
		{Label: "1-way", Ways: 1},
		{Label: "4-way", Ways: 4},
	}
}

func static(name, desc string) Entry {
	return Entry{Name: name, Kind: KindStatic, Description: desc, build: func() *Scenario {
		return &Scenario{Name: name, Kind: KindStatic, Description: desc}
	}}
}

func sim(name string, kind Kind, desc string, build func() *Scenario) Entry {
	return Entry{Name: name, Kind: kind, Description: desc, build: func() *Scenario {
		sc := build()
		sc.Name = name
		sc.Kind = kind
		sc.Description = desc
		return sc
	}}
}

// registry lists every preset in paper order, extensions last.
var registry = []Entry{
	static("tab1", "Table 1: RelaxFault storage overhead"),
	static("tab2", "Table 2: DDR3 fault rates (FIT/device)"),
	static("tab3", "Table 3: simulated system parameters"),
	static("tab4", "Table 4: workload inventory"),
	static("fig2", "Figure 2: field-study fault rates (Cielo, Hopper)"),
	sim("fig8", KindCoverage, "Figure 8: coverage vs LLC set-index hashing", func() *Scenario {
		return &Scenario{Coverage: &CoverageSpec{Studies: []CoverageStudy{{
			Label:     "hash sensitivity",
			Planners:  []PlannerSpec{plRelax, plFFHash, plFFNoHash},
			WayLimits: []int{1},
		}}}}
	}),
	sim("fig9", KindReliability, "Figure 9: fault-model sensitivity sweeps", func() *Scenario {
		return &Scenario{Reliability: &ReliabilitySpec{Cells: fig9Cells()}}
	}),
	sim("fig10", KindCoverage, "Figure 10: coverage vs LLC capacity (1x FIT)", func() *Scenario {
		return &Scenario{Coverage: coverageVsCapacity(1)}
	}),
	sim("fig11", KindCoverage, "Figure 11: coverage vs LLC capacity (10x FIT)", func() *Scenario {
		return &Scenario{Coverage: coverageVsCapacity(10)}
	}),
	sim("fig12", KindReliability, "Figure 12: expected DUEs per system", func() *Scenario {
		return &Scenario{Reliability: &ReliabilitySpec{Cells: append(
			reliabilityCombos(1, "replace-after-due"),
			reliabilityCombos(10, "replace-after-due")...)}}
	}),
	sim("fig13", KindReliability, "Figure 13: expected SDCs per system (same runs as fig12)", func() *Scenario {
		return &Scenario{Reliability: &ReliabilitySpec{Cells: append(
			reliabilityCombos(1, "replace-after-due"),
			reliabilityCombos(10, "replace-after-due")...)}}
	}),
	sim("fig14", KindReliability, "Figure 14: expected DIMM replacements", func() *Scenario {
		cells := reliabilityCombos(1, "replace-after-due")
		cells = append(cells, reliabilityCombos(10, "replace-after-due")...)
		cells = append(cells, reliabilityCombos(1, "replace-after-threshold")...)
		cells = append(cells, reliabilityCombos(10, "replace-after-threshold")...)
		return &Scenario{Reliability: &ReliabilitySpec{Cells: cells}}
	}),
	sim("fig15", KindPerf, "Figure 15: weighted speedup under repair", func() *Scenario {
		return &Scenario{Perf: &PerfSpec{Locks: perfLocks()}}
	}),
	sim("fig16", KindPerf, "Figure 16: relative DRAM dynamic power (same runs as fig15)", func() *Scenario {
		return &Scenario{Perf: &PerfSpec{Locks: perfLocks()}}
	}),
	sim("ablate", KindCoverage, "design-choice ablations + retirement baselines", func() *Scenario {
		return &Scenario{Coverage: &CoverageSpec{Studies: []CoverageStudy{{
			Label: "ablations",
			Planners: []PlannerSpec{
				plRelax,
				{Kind: "relaxfault", NoCoalescing: true},
				{Kind: "relaxfault", NoSpread: true},
				plFFHash,
				{Kind: "page-retire", PageBytes: 4 << 10},
				{Kind: "page-retire", PageBytes: 2 << 20},
				{Kind: "mirroring"},
			},
			WayLimits: []int{1, 4},
		}}}}
	}),
	sim("variants", KindCoverage, "RelaxFault coverage on DDR4 / HBM / LPDDR4 organisations", func() *Scenario {
		var studies []CoverageStudy
		for _, v := range []struct{ label, geo string }{
			{"DDR3 8GiB DIMMs (paper)", "ddr3-8gib"},
			{"DDR4 16GiB DIMMs", "ddr4-16gib"},
			{"HBM-like stacks", "hbm-stack"},
			{"LPDDR4 soldered", "lpddr4"},
		} {
			studies = append(studies, CoverageStudy{
				Label:           v.label,
				Geometry:        v.geo,
				Planners:        []PlannerSpec{plRelax},
				WayLimits:       []int{1, 4},
				FaultyNodesFrac: 0.5,
			})
		}
		return &Scenario{Coverage: &CoverageSpec{Studies: studies}}
	}),
	sim("prefetch", KindPerf, "performance sensitivity to a stream prefetcher", func() *Scenario {
		return &Scenario{Perf: &PerfSpec{
			Workloads:       []string{"SP", "LULESH"},
			PrefetchDegrees: []int{0, 4},
			Locks: []LockSpec{
				{Label: "no-repair"},
				{Label: "4-way", Ways: 4},
			},
		}}
	}),
	sim("ddr4", KindPerf, "weighted speedup and relative power on DDR4-2400 (bank-group timing)", func() *Scenario {
		return &Scenario{
			Technology: "ddr4-2400",
			Perf: &PerfSpec{
				Workloads: []string{"SP", "LULESH"},
				Locks: []LockSpec{
					{Label: "no-repair"},
					{Label: "1-way", Ways: 1},
					{Label: "4-way", Ways: 4},
				},
			},
		}
	}),
	sim("rare-due", KindReliability, "rare-event DUE estimation: importance sampling + sequential CI stopping", func() *Scenario {
		return &Scenario{
			Reliability: &ReliabilitySpec{Cells: []ReliabilityCell{{
				Label:    "RelaxFault-1way",
				Planner:  &PlannerSpec{Kind: "relaxfault"},
				WayLimit: 1,
				Fault:    rareFault(),
			}}},
			// Boost 16 oversamples the fault-arrival process so the DUE CI
			// half-width 0.02 (per system) is reachable at roughly half the
			// quick-scale budget; the naive estimator sees zero DUE events
			// at that budget (TestImportancePayoff in internal/experiments
			// gates the payoff).
			Statistics: &relsim.StatsConfig{Estimator: "importance", Boost: 16, TargetCI: 0.02},
		}
	}),
	sim("strat-due", KindReliability, "rare-event DUE estimation: stratified-by-fault-mode sampling", func() *Scenario {
		return &Scenario{
			Reliability: &ReliabilitySpec{Cells: []ReliabilityCell{{
				Label:    "RelaxFault-1way",
				Planner:  &PlannerSpec{Kind: "relaxfault"},
				WayLimit: 1,
				Fault:    rareFault(),
			}}},
			Statistics: &relsim.StatsConfig{Estimator: "stratified"},
		}
	}),
}

// Preset builds a fresh copy of the named preset scenario (normalized, not
// yet budget-adjusted). Callers own the copy and may override Budget and
// Seed before running.
func Preset(name string) (*Scenario, error) {
	for _, e := range registry {
		if e.Name == name {
			sc := e.build()
			sc.Normalize()
			return sc, nil
		}
	}
	return nil, fmt.Errorf("scenario: no preset %q (try the list subcommand)", name)
}

// IsPreset reports whether a preset exists under the name.
func IsPreset(name string) bool {
	for _, e := range registry {
		if e.Name == name {
			return true
		}
	}
	return false
}

// Presets returns the registry entries in paper order.
func Presets() []Entry { return append([]Entry(nil), registry...) }

// PresetNames returns every preset name, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(registry))
	for _, e := range registry {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return names
}
