package experiments

import (
	"context"
	"strings"
	"testing"

	"relaxfault/internal/relsim"
	"relaxfault/internal/scenario"
)

// tinyBudget and tinySeed keep experiment smoke tests fast.
func tinyBudget() scenario.Budget {
	return scenario.Budget{FaultyNodes: 600, Nodes: 4096, Replicas: 1, Instructions: 60_000}
}

const tinySeed = 3

// presetAt resolves the named preset at budget b and seed, as the CLI does.
func presetAt(name string, b scenario.Budget, seed uint64) (*scenario.Scenario, error) {
	sc, err := scenario.Preset(name)
	if err != nil {
		return nil, err
	}
	sc.Budget, sc.Seed = b, &seed
	return sc, nil
}

// runShaped runs preset at budget b and seed with ex attached and shapes
// its result into a figure.
func runShaped[T any](ctx context.Context, preset string, b scenario.Budget, seed uint64, ex scenario.Exec, shape func(*scenario.Result) T) (T, error) {
	var zero T
	sc, err := presetAt(preset, b, seed)
	if err != nil {
		return zero, err
	}
	res, err := scenario.RunCtx(ctx, sc, ex)
	if err != nil {
		return zero, err
	}
	return shape(res), nil
}

func TestTable1MatchesPaperExactly(t *testing.T) {
	r := Table1()
	if r.FaultyBankTableBytes != 8 {
		t.Errorf("faulty-bank table %dB, want 8", r.FaultyBankTableBytes)
	}
	if r.CoalescerBytes != 128 {
		t.Errorf("coalescer %dB, want 128", r.CoalescerBytes)
	}
	if r.TagExtensionBytes != 16384 {
		t.Errorf("tag extension %dB, want 16384", r.TagExtensionBytes)
	}
	if r.TotalBytes != 16520 {
		t.Errorf("total %dB, want the paper's 16,520", r.TotalBytes)
	}
	if !strings.Contains(r.String(), "16520") {
		t.Error("Table 1 output missing total")
	}
}

func TestTable2And3And4Strings(t *testing.T) {
	if s := Table2().String(); !strings.Contains(s, "single-row") || !strings.Contains(s, "13.0") {
		t.Errorf("Table 2 output malformed:\n%s", s)
	}
	if s := Table3(); !strings.Contains(s, "DDR3-1600") || !strings.Contains(s, "8MiB") {
		t.Errorf("Table 3 output malformed:\n%s", s)
	}
	s := Table4()
	for _, w := range []string{"CG", "LULESH", "MEM", "COMP", "429.mcf"} {
		if !strings.Contains(s, w) {
			t.Errorf("Table 4 missing %s", w)
		}
	}
	if s := Fig2().String(); !strings.Contains(s, "Hopper") {
		t.Errorf("Figure 2 output malformed:\n%s", s)
	}
}

func TestFig8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo experiment")
	}
	r, err := runShaped(context.Background(), "fig8", tinyBudget(), tinySeed, scenario.Exec{}, fig8Of)
	if err != nil {
		t.Fatal(err)
	}
	// Ordering must hold even at tiny sample sizes.
	if !(r.FreeFaultNoHash < r.FreeFaultHash && r.FreeFaultHash < r.RelaxFaultXOR) {
		t.Errorf("coverage ordering violated: %.3f %.3f %.3f",
			r.FreeFaultNoHash, r.FreeFaultHash, r.RelaxFaultXOR)
	}
	if !strings.Contains(r.String(), "RelaxFault") {
		t.Error("output malformed")
	}
}

func TestFig10Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo experiment")
	}
	r, err := runShaped(context.Background(), "fig10", tinyBudget(), tinySeed, scenario.Exec{}, fig10Of)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 7 {
		t.Fatalf("%d curves, want 7", len(r.Curves))
	}
	for _, c := range r.Curves {
		prev := -1.0
		for _, p := range c.Points {
			if p.Coverage < prev-1e-9 {
				t.Errorf("%s: coverage not monotone in capacity", c.Label)
			}
			prev = p.Coverage
			if p.Coverage < 0 || p.Coverage > 1 {
				t.Errorf("%s: coverage %f out of range", c.Label, p.Coverage)
			}
		}
		if c.Points[len(c.Points)-1].Coverage > c.Asymptote+1e-9 {
			t.Errorf("%s: capacity-limited coverage exceeds asymptote", c.Label)
		}
	}
	rf4 := curveByLabel(t, r, "RelaxFault-4way")
	ppr := curveByLabel(t, r, "PPR")
	if rf4.Asymptote <= ppr.Asymptote {
		t.Error("RelaxFault-4way should beat PPR")
	}
	if !strings.Contains(r.String(), "capacity") {
		t.Error("output malformed")
	}
}

func curveByLabel(t *testing.T, r Fig10Result, label string) CoverageCurveOut {
	t.Helper()
	for _, c := range r.Curves {
		if c.Label == label {
			return c
		}
	}
	t.Fatalf("missing curve %s", label)
	return CoverageCurveOut{}
}

func TestFig9Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo experiment")
	}
	r, err := runShaped(context.Background(), "fig9", tinyBudget(), tinySeed, scenario.Exec{}, fig9Of)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.AccelSweep) != 5 || len(r.FracSweep) != 7 {
		t.Fatalf("sweep sizes %d/%d", len(r.AccelSweep), len(r.FracSweep))
	}
	// Acceleration should raise multi-device-fault DIMMs markedly between
	// the 0x and 200x endpoints.
	if r.AccelSweep[4].MultiDIMM <= r.AccelSweep[0].MultiDIMM {
		t.Errorf("multiDIMM not increasing with acceleration: %v -> %v",
			r.AccelSweep[0].MultiDIMM, r.AccelSweep[4].MultiDIMM)
	}
	if !strings.Contains(r.String(), "Figure 9") {
		t.Error("output malformed")
	}
}

func TestFig12And13Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo experiment")
	}
	b := tinyBudget()
	b.Replicas = 2
	p, err := runShaped(context.Background(), "fig12", b, tinySeed, scenario.Exec{}, fig12Of)
	if err != nil {
		t.Fatal(err)
	}
	one, ten := p[0], p[1]
	if len(one.Columns) != 6 || len(ten.Columns) != 6 {
		t.Fatal("missing mechanism columns")
	}
	if ten.Columns[0].DUEs <= one.Columns[0].DUEs {
		t.Errorf("10x FIT should have far more DUEs: %f vs %f",
			ten.Columns[0].DUEs, one.Columns[0].DUEs)
	}
	// Repair must not increase DUEs beyond Monte Carlo noise (single-digit
	// event counts at this tiny scale; the tight comparison lives in
	// relsim's TestSystemRunShapes at full fleet size).
	for _, c := range ten.Columns[1:] {
		if c.DUEs > ten.Columns[0].DUEs*1.5+2 {
			t.Errorf("%s has far more DUEs (%f) than no-repair (%f)", c.Label, c.DUEs, ten.Columns[0].DUEs)
		}
	}
	if !strings.Contains(one.String(), "DUEs") || !strings.Contains(one.StringSDC(), "SDCs") {
		t.Error("panel output malformed")
	}
}

func TestFig15SmokeAndPolicyOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("performance experiment")
	}
	r, err := runShaped(context.Background(), "fig15", tinyBudget(), tinySeed, scenario.Exec{}, fig15Of)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 8 {
		t.Fatalf("%d workload rows, want 8", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.WSNone <= 0 {
			t.Errorf("%s: zero baseline WS", row.Workload)
		}
		if row.WS100KiB < row.WSNone*0.9 {
			t.Errorf("%s: 100KiB repair cost too much: %f -> %f", row.Workload, row.WSNone, row.WS100KiB)
		}
	}
	if !strings.Contains(r.String(), "Figure 15") || !strings.Contains(r.StringPower(), "Figure 16") {
		t.Error("output malformed")
	}
}

func TestReplacementPolicyString(t *testing.T) {
	for _, p := range []relsim.ReplacementPolicy{relsim.ReplaceNever, relsim.ReplaceAfterDUE, relsim.ReplaceAfterThreshold} {
		if p.String() == "" {
			t.Error("empty policy name")
		}
	}
}

func TestFig14Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo experiment")
	}
	r, err := runShaped(context.Background(), "fig14", tinyBudget(), tinySeed, scenario.Exec{}, fig14Of)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Panels) != 4 {
		t.Fatalf("%d panels, want 4", len(r.Panels))
	}
	// ReplB must replace far more than ReplA without repair, and
	// RelaxFault-4way must cut ReplB volume hard.
	replA := r.Panels[0].Columns[0].Replacements
	replB := r.Panels[2].Columns[0].Replacements
	if replB < 10*replA {
		t.Errorf("ReplB (%f) should dwarf ReplA (%f)", replB, replA)
	}
	rf4 := r.Panels[2].Columns[len(r.Panels[2].Columns)-1]
	if rf4.Label != "RelaxFault-4way" {
		t.Fatalf("unexpected column order: %s", rf4.Label)
	}
	if rf4.Replacements > replB*0.25 {
		t.Errorf("RelaxFault-4way should save most ReplB replacements: %f -> %f", replB, rf4.Replacements)
	}
}

func TestAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo experiment")
	}
	r, err := runShaped(context.Background(), "ablate", tinyBudget(), tinySeed, scenario.Exec{}, ablationsOf)
	if err != nil {
		t.Fatal(err)
	}
	find := func(label string, way int) AblationRow {
		for _, row := range r.Rows {
			if row.Label == label && row.WayLimit == way {
				return row
			}
		}
		t.Fatalf("missing row %s/%d", label, way)
		return AblationRow{}
	}
	full := find("RelaxFault", 1)
	noCoal := find("RelaxFault-nocoalesce", 1)
	mirror := find("Mirroring", 1)
	if noCoal.Coverage >= full.Coverage {
		t.Errorf("removing coalescing should hurt coverage: %f vs %f", noCoal.Coverage, full.Coverage)
	}
	if mirror.Coverage != 1.0 {
		t.Errorf("mirroring coverage %f, want 1.0", mirror.Coverage)
	}
	pr := find("PageRetire-4KiB", 1)
	if pr.P90Bytes <= full.P90Bytes {
		t.Errorf("page retirement (%f B) should cost more capacity than RelaxFault (%f B)", pr.P90Bytes, full.P90Bytes)
	}
}

func TestGeometryVariantsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo experiment")
	}
	r, err := runShaped(context.Background(), "variants", tinyBudget(), tinySeed, scenario.Exec{}, variantsOf)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d variants, want 4", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Coverage1Way < 0.85 || row.Coverage4Way < row.Coverage1Way {
			t.Errorf("%s: coverage %f/%f out of expected band", row.Name, row.Coverage1Way, row.Coverage4Way)
		}
	}
}

// TestExperimentTable pins the CLI's name→renderer table: "all" expands to
// the paper's fourteen artifacts in paper order, every name is a registry
// preset, and the retired bench experiment no longer resolves.
func TestExperimentTable(t *testing.T) {
	got, err := Resolve([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"tab1", "tab2", "tab3", "tab4", "fig2", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("all expands to %q, want %q", got, want)
	}
	paper, ext := Names()
	for _, name := range append(paper, ext...) {
		if !scenario.IsPreset(name) {
			t.Errorf("table name %q is not a registry preset", name)
		}
	}
	if _, err := Resolve([]string{"fig8", "bench"}); err == nil {
		t.Error("bench still resolves to an experiment")
	}
}
