// Package experiments presents every table and figure of the paper's
// evaluation. Each experiment is a registry preset (internal/scenario)
// plus a figure-shaped presentation of that preset's result, whose String
// method prints the same rows or series the paper reports. One name→renderer
// table (Lookup, Resolve) drives both the cmd/relaxfault CLI and the
// top-level benchmark, so the numbers in EXPERIMENTS.md are reproducible
// from either entry point.
package experiments

import (
	"fmt"
	"strings"

	"relaxfault/internal/core"
	"relaxfault/internal/fault"
	"relaxfault/internal/scenario"
)

// Experiment is one entry of the name→renderer table: the registry preset
// whose result it presents (none for the static tables) and the rendering
// of that result as the printed artifact. Experiments presenting the same
// simulations name the same preset — fig12 and fig13, fig15 and fig16 — so
// a caller that keeps results by preset runs them once.
type Experiment struct {
	Name   string
	paper  bool // part of the paper's evaluation, which "all" runs
	Preset string
	Render func(*scenario.Result) string
}

func static(name string, render func() string) Experiment {
	return Experiment{Name: name, paper: true, Render: func(*scenario.Result) string { return render() }}
}

// table lists every experiment: the paper's evaluation in paper order, then
// the extensions in registry order. Every name is a registry preset.
var table = []Experiment{
	static("tab1", func() string { return Table1().String() }),
	static("tab2", func() string { return Table2().String() }),
	static("tab3", Table3),
	static("tab4", Table4),
	static("fig2", func() string { return Fig2().String() }),
	{"fig8", true, "fig8", func(r *scenario.Result) string { return fig8Of(r).String() }},
	{"fig9", true, "fig9", func(r *scenario.Result) string { return fig9Of(r).String() }},
	{"fig10", true, "fig10", func(r *scenario.Result) string { return fig10Of(r).String() }},
	{"fig11", true, "fig11", func(r *scenario.Result) string { return fig11Of(r).String() }},
	{"fig12", true, "fig12", func(r *scenario.Result) string { p := fig12Of(r); return p[0].String() + p[1].String() }},
	{"fig13", true, "fig12", func(r *scenario.Result) string { p := fig13Of(r); return p[0].StringSDC() + p[1].StringSDC() }},
	{"fig14", true, "fig14", func(r *scenario.Result) string { return fig14Of(r).String() }},
	{"fig15", true, "fig15", func(r *scenario.Result) string { return fig15Of(r).String() }},
	{"fig16", true, "fig15", func(r *scenario.Result) string { return fig15Of(r).StringPower() }},
	{"ablate", false, "ablate", func(r *scenario.Result) string { return ablationsOf(r).String() }},
	{"variants", false, "variants", func(r *scenario.Result) string { return variantsOf(r).String() }},
	{"prefetch", false, "prefetch", func(r *scenario.Result) string { return prefetchOf(r).String() }},
	{"ddr4", false, "ddr4", (*scenario.Result).String},
}

// Lookup returns the named experiment (names are case-insensitive).
func Lookup(name string) (Experiment, bool) {
	for _, e := range table {
		if e.Name == strings.ToLower(name) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names returns the experiment table's names: the paper's evaluation in
// paper order (what "all" expands to), then the extensions.
func Names() (paper, extensions []string) {
	for _, e := range table {
		if e.paper {
			paper = append(paper, e.Name)
		} else {
			extensions = append(extensions, e.Name)
		}
	}
	return paper, extensions
}

// Resolve expands an experiment list, replacing "all" with the paper's
// evaluation in paper order, and rejects any name not in the table.
func Resolve(names []string) ([]string, error) {
	var out []string
	for _, n := range names {
		if n == "all" {
			paper, _ := Names()
			out = append(out, paper...)
			continue
		}
		if _, ok := Lookup(n); !ok {
			return nil, fmt.Errorf("unknown experiment %q (the list subcommand prints the presets; -scenario runs the others)", n)
		}
		out = append(out, n)
	}
	return out, nil
}

// --- Table 1 ---------------------------------------------------------------

// Table1Result is the RelaxFault storage overhead accounting.
type Table1Result struct {
	FaultyBankTableBytes int
	CoalescerBytes       int
	TagExtensionBytes    int
	TotalBytes           int
}

// Table1 computes the storage overhead of Table 1 from the default
// configuration (8MiB 16-way LLC, 8 DIMMs per node).
func Table1() Table1Result {
	cfg := core.DefaultConfig()
	c, err := core.New(cfg)
	if err != nil {
		panic(err)
	}
	return Table1Result{
		FaultyBankTableBytes: c.FaultyBankTableBytes(),
		CoalescerBytes:       c.CoalescerBytes(),
		TagExtensionBytes:    c.TagExtensionBytes(),
		TotalBytes:           c.MetadataBytes(),
	}
}

// String prints the paper's Table 1 rows.
func (r Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: RelaxFault storage overhead\n")
	fmt.Fprintf(&b, "%-22s %8s  %s\n", "Structure", "Bytes", "Description")
	fmt.Fprintf(&b, "%-22s %8d  1 bit per bank per DIMM\n", "Faulty-bank table", r.FaultyBankTableBytes)
	fmt.Fprintf(&b, "%-22s %8d  pre-computed bitmasks\n", "Data coalescer", r.CoalescerBytes)
	fmt.Fprintf(&b, "%-22s %8d  1 bit per LLC tag\n", "LLC tag extension", r.TagExtensionBytes)
	fmt.Fprintf(&b, "%-22s %8d  (paper: 16,520)\n", "Total", r.TotalBytes)
	return b.String()
}

// --- Table 2 / Figure 2 ----------------------------------------------------

// Table2Result carries the fault-mode FIT rates used by the model.
type Table2Result struct {
	Name  string
	Rates fault.Rates
}

// Table2 returns the Cielo baseline rates (the evaluation's Table 2).
func Table2() Table2Result { return Table2Result{Name: "Cielo", Rates: fault.CieloRates()} }

// String prints the FIT table.
func (r Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: %s DDR3 fault rates (FIT/device)\n", r.Name)
	fmt.Fprintf(&b, "%-18s %10s %10s\n", "Fault mode", "Transient", "Permanent")
	for m := fault.Mode(0); m < fault.NumModes; m++ {
		fmt.Fprintf(&b, "%-18s %10.1f %10.1f\n", m, r.Rates.Transient[m], r.Rates.Permanent[m])
	}
	fmt.Fprintf(&b, "%-18s %10.1f %10.1f\n", "total", r.Rates.TotalTransient(), r.Rates.TotalPermanent())
	return b.String()
}

// Fig2Result carries both systems' rates (Figure 2 plots Cielo and Hopper).
type Fig2Result struct {
	Cielo  fault.Rates
	Hopper fault.Rates
}

// Fig2 returns the field-study rates behind Figure 2.
func Fig2() Fig2Result { return Fig2Result{Cielo: fault.CieloRates(), Hopper: fault.HopperRates()} }

// String prints the grouped series of Figure 2.
func (r Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2: fault rates of DDR3-based large-scale systems (FIT/device)\n")
	fmt.Fprintf(&b, "%-18s %14s %14s\n", "", "Cielo", "Hopper")
	fmt.Fprintf(&b, "%-18s %6s %7s %6s %7s\n", "Fault mode", "trans", "perm", "trans", "perm")
	for m := fault.Mode(0); m < fault.NumModes; m++ {
		fmt.Fprintf(&b, "%-18s %6.1f %7.1f %6.1f %7.1f\n", m,
			r.Cielo.Transient[m], r.Cielo.Permanent[m],
			r.Hopper.Transient[m], r.Hopper.Permanent[m])
	}
	return b.String()
}

// --- Figure 8 ----------------------------------------------------------

// Fig8Result compares RelaxFault and FreeFault coverage with and without
// LLC set-index hashing at a 1-way repair budget.
type Fig8Result struct {
	FreeFaultNoHash float64
	FreeFaultHash   float64
	RelaxFaultNoXOR float64 // RelaxFault under the unhashed LLC
	RelaxFaultXOR   float64
	FaultyFraction  float64
}

// fig8Of shapes the fig8 preset's result. RelaxFault's placement is
// independent of the LLC's normal-access hash, so its single curve fills
// both Figure 8 columns.
func fig8Of(res *scenario.Result) Fig8Result {
	cov := res.Coverage[0]
	out := Fig8Result{FaultyFraction: cov.FaultyFraction}
	out.RelaxFaultXOR = cov.Curve("RelaxFault", 1).Coverage()
	out.RelaxFaultNoXOR = out.RelaxFaultXOR
	out.FreeFaultHash = cov.Curve("FreeFault+hash", 1).Coverage()
	out.FreeFaultNoHash = cov.Curve("FreeFault", 1).Coverage()
	return out
}

// String prints the four bars of Figure 8.
func (r Fig8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: repair coverage with at most 1 way per set (%% of faulty nodes)\n")
	fmt.Fprintf(&b, "%-28s %8s   (paper)\n", "Mechanism", "coverage")
	fmt.Fprintf(&b, "%-28s %7.1f%%   (74.0%%)\n", "FreeFault, no hash", 100*r.FreeFaultNoHash)
	fmt.Fprintf(&b, "%-28s %7.1f%%   (84.2%%)\n", "FreeFault, XOR hash", 100*r.FreeFaultHash)
	fmt.Fprintf(&b, "%-28s %7.1f%%   (89.0%%)\n", "RelaxFault, no hash", 100*r.RelaxFaultNoXOR)
	fmt.Fprintf(&b, "%-28s %7.1f%%   (90.3%%)\n", "RelaxFault, XOR hash", 100*r.RelaxFaultXOR)
	return b.String()
}
