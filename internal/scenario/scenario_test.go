package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"relaxfault/internal/harness"
	"relaxfault/internal/relsim"
)

// minimalCoverage is a small valid coverage scenario used across tests.
func minimalCoverage() *Scenario {
	return &Scenario{
		Name: "t",
		Kind: KindCoverage,
		Coverage: &CoverageSpec{Studies: []CoverageStudy{{
			Planners:  []PlannerSpec{{Kind: "relaxfault"}},
			WayLimits: []int{1},
		}}},
	}
}

func TestNormalizeDefaults(t *testing.T) {
	sc := minimalCoverage()
	sc.Normalize()
	if sc.Schema != Schema {
		t.Errorf("schema = %q, want %q", sc.Schema, Schema)
	}
	if sc.Seed == nil || *sc.Seed != 7 {
		t.Errorf("seed = %v, want 7", sc.Seed)
	}
	if sc.Budget != DefaultBudget() {
		t.Errorf("budget = %+v, want quick defaults %+v", sc.Budget, DefaultBudget())
	}
	if sc.Geometry != GeometryDefault {
		t.Errorf("geometry = %q, want %q", sc.Geometry, GeometryDefault)
	}
	st := sc.Coverage.Studies[0]
	if st.FaultyNodesFrac != 1 || st.MaxNodes != 5_000_000 {
		t.Errorf("study defaults = frac %v maxNodes %v, want 1 and 5000000", st.FaultyNodesFrac, st.MaxNodes)
	}

	pf := &Scenario{Name: "p", Kind: KindPerf, Perf: &PerfSpec{Locks: []LockSpec{{Label: "base"}}}}
	pf.Normalize()
	if len(pf.Perf.PrefetchDegrees) != 1 || pf.Perf.PrefetchDegrees[0] != 0 {
		t.Errorf("prefetch degrees = %v, want [0]", pf.Perf.PrefetchDegrees)
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	sc := minimalCoverage()
	sc.Normalize()
	first, err := sc.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	sc.Normalize()
	second, err := sc.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("Normalize is not idempotent:\n%s\nvs\n%s", first, second)
	}
}

// TestCanonicalRoundTrip: encode -> decode -> encode must reproduce the
// document byte for byte, for a hand-built scenario and for every preset.
func TestCanonicalRoundTrip(t *testing.T) {
	scens := []*Scenario{minimalCoverage()}
	for _, name := range PresetNames() {
		sc, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		scens = append(scens, sc)
	}
	for _, sc := range scens {
		doc, err := sc.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		back, err := Decode(doc)
		if err != nil {
			t.Fatalf("%s: decode canonical: %v", sc.Name, err)
		}
		doc2, err := back.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if !bytes.Equal(doc, doc2) {
			t.Errorf("%s: canonical round-trip differs:\n%s\nvs\n%s", sc.Name, doc, doc2)
		}
	}
}

func TestFingerprintDistinguishesSpecs(t *testing.T) {
	a := minimalCoverage()
	b := minimalCoverage()
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Errorf("identical specs, different fingerprints: %s vs %s", fa, fb)
	}
	b.Coverage.Studies[0].WayLimits = []int{1, 4}
	fb2, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa == fb2 {
		t.Error("different specs share a fingerprint")
	}
}

// TestValidateErrors pins the failure messages a bad spec produces: every
// case must fail before any simulation work, with the offending knob named.
func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"missing name", func(sc *Scenario) { sc.Name = "" }, "missing name"},
		{"bad kind", func(sc *Scenario) { sc.Kind = "bogus" }, `unknown kind "bogus"`},
		{"kind/section mismatch", func(sc *Scenario) { sc.Kind = KindReliability }, `requires a "reliability" section`},
		{"two sections", func(sc *Scenario) { sc.Perf = &PerfSpec{Locks: []LockSpec{{Label: "base"}}} },
			"exactly one of coverage/reliability/perf may be set, found 2"},
		{"bad geometry", func(sc *Scenario) { sc.Geometry = "ddr9" }, `unknown geometry "ddr9"`},
		{"bad rates", func(sc *Scenario) { sc.Fault = &FaultSpec{Rates: "jaguar"} }, `unknown fault rates "jaguar"`},
		{"negative fit scale", func(sc *Scenario) { sc.Fault = &FaultSpec{FITScale: -1} }, "negative fit_scale"},
		{"bad planner kind", func(sc *Scenario) { sc.Coverage.Studies[0].Planners[0].Kind = "magic" },
			`unknown planner kind "magic"`},
		{"no studies", func(sc *Scenario) { sc.Coverage.Studies = nil }, "at least one study"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := minimalCoverage()
			tc.mut(sc)
			_, err := sc.Lower()
			if err == nil {
				t.Fatalf("Lower() = nil, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Lower() = %q, want it to contain %q", err, tc.want)
			}
		})
	}
}

func TestValidatePlannerBudgets(t *testing.T) {
	// PPR budgets flow through the repair package's checked constructor:
	// a negative spare budget must be a validation error, not a clamp or a
	// panic.
	sc := minimalCoverage()
	sc.Coverage.Studies[0].Planners = []PlannerSpec{{Kind: "ppr", SparesPerGroup: -1}}
	if _, err := sc.Lower(); err == nil {
		t.Error("negative spares_per_group validated")
	}
	sc = minimalCoverage()
	sc.Coverage.Studies[0].Planners = []PlannerSpec{{Kind: "page-retire", PageBytes: -4}}
	if _, err := sc.Lower(); err == nil {
		t.Error("negative page_bytes validated")
	}
}

func TestValidateReliability(t *testing.T) {
	sc := &Scenario{
		Name: "r",
		Kind: KindReliability,
		Reliability: &ReliabilitySpec{Cells: []ReliabilityCell{
			{Label: "bad-policy", Policy: "replace-never"},
		}},
	}
	_, err := sc.Lower()
	if err == nil || !strings.Contains(err.Error(), `unknown replacement policy "replace-never"`) {
		t.Errorf("Lower() = %v, want unknown-policy error", err)
	}
}

func TestValidatePerfBaselineRule(t *testing.T) {
	sc := &Scenario{
		Name: "p",
		Kind: KindPerf,
		Perf: &PerfSpec{Locks: []LockSpec{{Label: "locked", Ways: 4}}},
	}
	_, err := sc.Lower()
	if err == nil || !strings.Contains(err.Error(), "locks[0] must be the unlocked baseline") {
		t.Errorf("Lower() = %v, want baseline-rule error", err)
	}

	sc.Perf.Locks = []LockSpec{{Label: "base"}, {Label: "4-way", Ways: 4}}
	sc.Perf.Workloads = []string{"NOPE"}
	_, err = sc.Lower()
	if err == nil || !strings.Contains(err.Error(), `unknown workload "NOPE"`) {
		t.Errorf("Lower() = %v, want unknown-workload error", err)
	}
}

func TestDecodeRejectsUnknownFieldsAndSchemas(t *testing.T) {
	doc, err := minimalCoverage().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	typo := bytes.Replace(doc, []byte(`"way_limits"`), []byte(`"way_limit"`), 1)
	if _, err := Decode(typo); err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Errorf("Decode(typo) = %v, want unknown-field error", err)
	}
	foreign := bytes.Replace(doc, []byte(Schema), []byte("relaxfault-scenario/v9"), 1)
	if _, err := Decode(foreign); err == nil || !strings.Contains(err.Error(), "unsupported schema") {
		t.Errorf("Decode(foreign schema) = %v, want unsupported-schema error", err)
	}

	// The settings the model fixes are not spec keys: each is rejected as
	// an unknown field, at the top level, in the fault block or in a
	// planner.
	spec := func(top, planner string) []byte {
		return []byte(fmt.Sprintf(`{"schema": %q, "name": "t", "kind": "coverage", %s
			"coverage": {"studies": [{"planners": [{"kind": "page-retire"%s}], "way_limits": [1]}]}}`,
			Schema, top, planner))
	}
	if _, err := Decode(spec("", "")); err != nil {
		t.Fatalf("base spec: %v", err)
	}
	for _, key := range []struct{ top, planner string }{
		{`"ecc": {"sdc_alias_prob": 0.01},`, ""},
		{`"ecc": {"triple_sdc_prob": 0.5},`, ""},
		{`"ecc": {"replb_activations_per_hour": 1},`, ""},
		{`"fault": {"horizon_years": 3},`, ""},
		{`"fault": {"variance_frac": 0.5},`, ""},
		{"", `, "llc_ways": 8`},
		{"", `, "max_loss_bytes": 4096`},
	} {
		if _, err := Decode(spec(key.top, key.planner)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("Decode with %s%s = %v, want unknown-field error", key.top, key.planner, err)
		}
	}
}

// TestLowerFig9AccelClamp: spec values at or below 1 lower to exactly 1
// (the Figure 9 0x point), while the spec keeps the raw swept value.
func TestLowerFig9AccelClamp(t *testing.T) {
	sc, err := Preset("fig9")
	if err != nil {
		t.Fatal(err)
	}
	low, err := sc.Lower()
	if err != nil {
		t.Fatal(err)
	}
	if got := *sc.Reliability.Cells[0].Fault.AccelFactor; got != 0 {
		t.Errorf("spec accel = %v, want raw 0", got)
	}
	if got := low.Reliability[0].Model.AccelFactor; got != 1 {
		t.Errorf("lowered accel = %v, want clamp to 1", got)
	}
	if got := low.Reliability[2].Model.AccelFactor; got != 100 {
		t.Errorf("lowered accel = %v, want 100", got)
	}
}

// TestPresetFingerprintsPinned pins every preset's scenario and campaign
// fingerprints. They name run manifests, campaign logs and store entries,
// so a change to any of them is a deliberate contract change that
// regenerates this table.
func TestPresetFingerprintsPinned(t *testing.T) {
	want := []struct{ name, fingerprint, campaign string }{
		{"tab1", "025df892eade88ce", "871bae17842c8dee"},
		{"tab2", "e9d6e09d02e8a32e", "441dec2fb057157e"},
		{"tab3", "e17ab2787e90ad3a", "4106807df4b82e12"},
		{"tab4", "1f9567cb2f22ecaa", "478f7fd75a7d3caa"},
		{"fig2", "d8ea82217bbcf958", "b249de5815934a10"},
		{"fig8", "80ef8e9d841617a2", "c41a3701d8cef3be"},
		{"fig9", "c3952fc8673a4fb4", "cf14c72105e3d8b4"},
		{"fig10", "a16e1cd34a465e44", "13af824fd0566574"},
		{"fig11", "a3efb6ed136d4454", "9df10ba0f9539380"},
		{"fig12", "aefb96dfeedcef0e", "49803df68b8f96de"},
		{"fig13", "eb687279790d8d8a", "d0b942225f6181ca"},
		{"fig14", "0de8879ee808089d", "45ad28ca2713fb27"},
		{"fig15", "b6841e99ed2469db", "ba211f98f9539a11"},
		{"fig16", "c7e9613f58638c42", "c3f5f69a1ef53f7e"},
		{"ablate", "65a76b2f0909511d", "7c102ef745f3e9f3"},
		{"variants", "326bdb0fb7aa9d89", "431c64b334027e57"},
		{"prefetch", "a80bfb997d044e70", "8c17218b9710f63c"},
		{"ddr4", "2d4766c1c3016c8f", "df159de1bcd08961"},
		{"rare-due", "99c057dcc2a76f6f", "0611361fd6045a69"},
		{"strat-due", "0ef86e42bc970484", "02d540bbabcd092c"},
	}
	if len(want) != len(Presets()) {
		t.Errorf("%d presets pinned, registry has %d", len(want), len(Presets()))
	}
	for _, w := range want {
		sc, err := Preset(w.name)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := sc.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		cfp, err := sc.CampaignFingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp != w.fingerprint || cfp != w.campaign {
			t.Errorf("%s: fingerprint %s campaign %s, pinned %s and %s", w.name, fp, cfp, w.fingerprint, w.campaign)
		}
	}
}

func TestPresetsAllValidateAndAreFresh(t *testing.T) {
	seen := map[string]string{}
	for _, name := range PresetNames() {
		sc, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.Lower(); err != nil {
			t.Errorf("preset %s: %v", name, err)
		}
		fpr, err := sc.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[fpr]; dup {
			t.Errorf("presets %s and %s share fingerprint %s", prev, name, fpr)
		}
		seen[fpr] = name
	}
	// Callers own the returned copy: mutating it must not leak into the
	// registry.
	a, _ := Preset("fig8")
	a.Coverage.Studies[0].WayLimits[0] = 999
	b, _ := Preset("fig8")
	if b.Coverage.Studies[0].WayLimits[0] == 999 {
		t.Error("Preset returned a shared way-limits slice")
	}
}

// TestStatisticsBlock covers the estimator-selection layer of the spec:
// normalization, kind gating, lowering onto relsim.StatsConfig for both
// Monte Carlo kinds, and the listing summary.
func TestStatisticsBlock(t *testing.T) {
	// Normalize defaults an empty estimator name to naive.
	sc := campaignRel()
	sc.Statistics = &relsim.StatsConfig{}
	sc.Normalize()
	if got := sc.Statistics.Estimator; got != "naive" {
		t.Errorf("normalized estimator = %q, want naive", got)
	}

	// Reliability lowering carries stopping parameters onto every cell.
	rel, err := Preset("rare-due")
	if err != nil {
		t.Fatal(err)
	}
	rlow, err := rel.Lower()
	if err != nil {
		t.Fatal(err)
	}
	rst := rlow.Reliability[0].Stats
	if rst == nil || rst.Estimator != "importance" || rst.Boost != 16 || rst.TargetCI != 0.02 {
		t.Errorf("rare-due lowered stats = %+v, want importance boost 16 target 0.02", rst)
	}

	// A scenario without the block lowers onto a nil Stats pointer, keeping
	// the engine fingerprints of every pre-statistics configuration.
	plain, err := Preset("fig12")
	if err != nil {
		t.Fatal(err)
	}
	plow, err := plain.Lower()
	if err != nil {
		t.Fatal(err)
	}
	if plow.Reliability[0].Stats != nil {
		t.Error("preset without a statistics block lowered a non-nil StatsConfig")
	}

	// Statistics on any other kind is a validation error: coverage studies
	// sample the physical fault process only.
	for _, other := range []*Scenario{
		minimalCoverage(),
		{Name: "p", Kind: KindPerf, Perf: &PerfSpec{Locks: []LockSpec{{Label: "base"}}}},
		{Name: "s", Kind: KindStatic},
	} {
		other.Statistics = &relsim.StatsConfig{Estimator: "importance"}
		if _, err := other.Lower(); err == nil || !strings.Contains(err.Error(), "statistics block") {
			t.Errorf("%s: Lower() = %v, want statistics-block kind error", other.Kind, err)
		}
	}

	// A bad estimator name fails at Lower (through cfg.Validate).
	bad := campaignRel()
	bad.Statistics = &relsim.StatsConfig{Estimator: "magic"}
	if _, err := bad.Lower(); err == nil || !strings.Contains(err.Error(), "unknown estimator") {
		t.Errorf("Lower() = %v, want unknown-estimator error", err)
	}

	// Summary renders for listings.
	if got := (*relsim.StatsConfig)(nil).Summary(); got != "naive" {
		t.Errorf("nil summary = %q, want naive", got)
	}
	sp := &relsim.StatsConfig{Estimator: "importance", Boost: 16, TargetCI: 0.02}
	if got := sp.Summary(); got != "importance(boost=16 target_ci=0.02)" {
		t.Errorf("summary = %q", got)
	}
	if got := (&relsim.StatsConfig{Estimator: "stratified"}).Summary(); got != "stratified" {
		t.Errorf("summary = %q, want stratified", got)
	}
}

func TestSweepExpand(t *testing.T) {
	base := minimalCoverage()
	base.Fault = &FaultSpec{FITScale: 1}
	sets := []SweepSet{
		{Path: "fault.fit_scale", Values: []string{"1", "10"}},
		{Path: "coverage.studies.0.way_limits.0", Values: []string{"1", "4"}},
	}
	points, err := Expand(base, sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("expanded to %d points, want 4", len(points))
	}
	wantNames := []string{
		"t/fault.fit_scale=1,coverage.studies.0.way_limits.0=1",
		"t/fault.fit_scale=1,coverage.studies.0.way_limits.0=4",
		"t/fault.fit_scale=10,coverage.studies.0.way_limits.0=1",
		"t/fault.fit_scale=10,coverage.studies.0.way_limits.0=4",
	}
	for i, pt := range points {
		if pt.Name != wantNames[i] {
			t.Errorf("point %d name = %q, want %q", i, pt.Name, wantNames[i])
		}
	}
	if got := points[3].Fault.FITScale; got != 10 {
		t.Errorf("point 3 fit_scale = %v, want 10", got)
	}
	if got := points[3].Coverage.Studies[0].WayLimits[0]; got != 4 {
		t.Errorf("point 3 way limit = %v, want 4", got)
	}
	// The base scenario must be untouched.
	if base.Fault.FITScale != 1 || base.Coverage.Studies[0].WayLimits[0] != 1 {
		t.Error("Expand mutated the base scenario")
	}
}

func TestSweepErrors(t *testing.T) {
	base := minimalCoverage()
	if _, err := Expand(base, nil); err == nil {
		t.Error("Expand with no axes succeeded")
	}
	if _, err := Expand(base, []SweepSet{{Path: "fault.fit_scale", Values: []string{"10"}}}); err == nil {
		t.Error("sweeping under an absent fault section succeeded")
	}
	if _, err := Expand(base, []SweepSet{{Path: "coverage.studies.9.way_limits.0", Values: []string{"1"}}}); err == nil {
		t.Error("out-of-range array index succeeded")
	}
	// A typoed leaf introduces an unknown field; Decode must reject it.
	if _, err := Expand(base, []SweepSet{{Path: "coverage.studies.0.way_limitz", Values: []string{"1"}}}); err == nil {
		t.Error("typoed leaf field succeeded")
	}
	if _, err := ParseSet("no-equals-sign"); err == nil {
		t.Error("ParseSet without '=' succeeded")
	}
}

// TestCanonicalEmbedsInJSON: the canonical document must survive embedding
// as a json.RawMessage (what run manifests do).
func TestCanonicalEmbedsInJSON(t *testing.T) {
	doc, err := minimalCoverage().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := json.Marshal(struct {
		Spec json.RawMessage `json:"spec"`
	}{Spec: doc})
	if err != nil {
		t.Fatalf("canonical form does not embed: %v", err)
	}
	var back struct {
		Spec Scenario `json:"spec"`
	}
	if err := json.Unmarshal(wrapped, &back); err != nil {
		t.Fatal(err)
	}
	if back.Spec.Name != "t" {
		t.Errorf("embedded spec name = %q, want t", back.Spec.Name)
	}
}

// TestPPRBudgetsKeepTheirOwnResults: two reliability cells that differ only
// in their PPR budget lower to different sections, so a checkpoint store
// shared by the run keeps each cell's results apart. Run with a store, each
// cell reads what it reads without one.
func TestPPRBudgetsKeepTheirOwnResults(t *testing.T) {
	seed := uint64(5)
	sc := func() *Scenario {
		return &Scenario{
			Name: "ppr-budgets", Kind: KindReliability, Seed: &seed,
			Budget: Budget{Nodes: 4096, Replicas: 2},
			Fault:  &FaultSpec{FITScale: 10},
			Reliability: &ReliabilitySpec{Cells: []ReliabilityCell{
				{Label: "ppr-1", Planner: &PlannerSpec{Kind: "ppr", SparesPerGroup: 1}, WayLimit: 1},
				{Label: "ppr-4", Planner: &PlannerSpec{Kind: "ppr", SparesPerGroup: 4}, WayLimit: 1},
			}},
		}
	}
	secs := sections(t, sc())
	if secs[0].Name == secs[1].Name {
		t.Fatalf("both PPR budgets lower to section %s", secs[0].Name)
	}
	want, err := RunCtx(context.Background(), sc(), Exec{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCtx(context.Background(), sc(), Exec{Store: harness.NewStore(nil)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Reliability {
		if !reflect.DeepEqual(got.Reliability[i], want.Reliability[i]) {
			t.Errorf("cell %d with a store: %+v, want %+v", i, got.Reliability[i], want.Reliability[i])
		}
	}
}

// TestHopperPPRCurvesNamed: the hopper PPR-budget example's two PPR
// planners carry distinct names, so its output tells their curves apart.
func TestHopperPPRCurvesNamed(t *testing.T) {
	data, err := os.ReadFile("../../examples/hopper-ppr-budget.json")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	low, err := sc.Lower()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, p := range low.Coverage[0].Planners {
		if seen[p.Name()] {
			t.Errorf("two planners named %q", p.Name())
		}
		seen[p.Name()] = true
	}
	if !seen["PPR"] || !seen["PPR-2spare-per-2banks"] {
		t.Errorf("planner names %v, want PPR and PPR-2spare-per-2banks", seen)
	}
}
