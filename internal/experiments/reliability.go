package experiments

import (
	"fmt"
	"strings"

	"relaxfault/internal/relsim"
	"relaxfault/internal/scenario"
)

// --- Figure 9: fault-model sensitivity -------------------------------------

// Fig9Point is one x-axis point of the sensitivity sweeps.
type Fig9Point struct {
	Accel        float64
	Frac         float64
	FaultyNodes  float64
	MultiDIMM    float64
	DUEs         float64
	SDCs         float64
	Replacements float64
}

// Fig9Result carries both sweeps: acceleration factor at fixed 0.1%
// fraction (a, b) and accelerated fraction at fixed 100x (c, d).
type Fig9Result struct {
	AccelSweep []Fig9Point
	FracSweep  []Fig9Point
}

// fig9Of shapes the fig9 preset's result. The x-axis values are read back
// from the resolved scenario: the preset's cells carry the raw swept
// accel/frac pointers, so presentation never re-states the sweep.
func fig9Of(res *scenario.Result) Fig9Result {
	var out Fig9Result
	cells := res.Scenario.Reliability.Cells
	for i, r := range res.Reliability {
		f := cells[i].Fault
		p := Fig9Point{
			Accel:        *f.AccelFactor,
			Frac:         *f.AccelNodeFrac,
			FaultyNodes:  r.FaultyNodes,
			MultiDIMM:    r.MultiDeviceFaultDIMMs,
			DUEs:         r.DUEs,
			SDCs:         r.SDCs,
			Replacements: r.Replacements,
		}
		if i < 5 {
			out.AccelSweep = append(out.AccelSweep, p)
		} else {
			out.FracSweep = append(out.FracSweep, p)
		}
	}
	return out
}

// String prints the four panels of Figure 9 as two tables.
func (r Fig9Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9a/9b: sweep of FIT acceleration (0.1%% of nodes and DIMMs)\n")
	fmt.Fprintf(&b, "%8s %12s %12s %8s %8s %8s\n", "accel", "faultyNodes", "multiDIMMs", "DUEs", "SDCs", "repl")
	for _, p := range r.AccelSweep {
		fmt.Fprintf(&b, "%7.0fx %12.0f %12.1f %8.2f %8.4f %8.2f\n",
			p.Accel, p.FaultyNodes, p.MultiDIMM, p.DUEs, p.SDCs, p.Replacements)
	}
	fmt.Fprintf(&b, "Figure 9c/9d: sweep of accelerated fraction (100x acceleration)\n")
	fmt.Fprintf(&b, "%8s %12s %12s %8s %8s %8s\n", "frac", "faultyNodes", "multiDIMMs", "DUEs", "SDCs", "repl")
	for _, p := range r.FracSweep {
		fmt.Fprintf(&b, "%7.2f%% %12.0f %12.1f %8.2f %8.4f %8.2f\n",
			100*p.Frac, p.FaultyNodes, p.MultiDIMM, p.DUEs, p.SDCs, p.Replacements)
	}
	return b.String()
}

// --- Figures 10 and 11: coverage vs capacity --------------------------------

// CoveragePoint is one (capacity, coverage) sample of a Figure 10/11 curve.
type CoveragePoint struct {
	CapBytes int64
	Coverage float64
}

// CoverageCurveOut is one plotted series.
type CoverageCurveOut struct {
	Label  string
	Points []CoveragePoint
	// Asymptote is the coverage with unlimited capacity (way limit only).
	Asymptote float64
}

// Fig10Result holds all series of a coverage-vs-capacity figure.
type Fig10Result struct {
	Title          string
	FITScale       float64
	FaultyFraction float64
	Curves         []CoverageCurveOut
}

// coverageCapacities is the x-axis of Figures 10b/11b plus the wider 10a
// range.
var coverageCapacities = []int64{
	64, 16 << 10, 32 << 10, 48 << 10, 64 << 10, 96 << 10, 128 << 10,
	192 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20,
}

// coverageStudy shapes a coverage-vs-capacity preset's result into the
// Figure 10/11 series layout.
func coverageStudy(res *scenario.Result, fitScale float64, title string) Fig10Result {
	cov := res.Coverage[0]
	out := Fig10Result{Title: title, FITScale: fitScale, FaultyFraction: cov.FaultyFraction}
	series := []struct {
		planner string
		way     int
		label   string
	}{
		{"PPR", 1, "PPR"},
		{"FreeFault+hash", 1, "FreeFault-1way"},
		{"FreeFault+hash", 4, "FreeFault-4way"},
		{"FreeFault+hash", 16, "FreeFault-16way"},
		{"RelaxFault", 1, "RelaxFault-1way"},
		{"RelaxFault", 4, "RelaxFault-4way"},
		{"RelaxFault", 16, "RelaxFault-16way"},
	}
	for _, sp := range series {
		c := cov.Curve(sp.planner, sp.way)
		if c == nil {
			continue
		}
		curve := CoverageCurveOut{Label: sp.label, Asymptote: c.Coverage()}
		for _, cap := range coverageCapacities {
			curve.Points = append(curve.Points, CoveragePoint{CapBytes: cap, Coverage: c.CoverageAt(cap)})
		}
		out.Curves = append(out.Curves, curve)
	}
	return out
}

// fig10Of shapes the baseline-FIT coverage-vs-capacity curves.
func fig10Of(res *scenario.Result) Fig10Result {
	return coverageStudy(res, 1, "Figure 10: cumulative repair coverage vs required LLC capacity (1x FIT)")
}

// fig11Of shapes the 10x-FIT curves.
func fig11Of(res *scenario.Result) Fig10Result {
	return coverageStudy(res, 10, "Figure 11: cumulative repair coverage vs required LLC capacity (10x FIT)")
}

// String prints the curves as a capacity-by-series table.
func (r Fig10Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "faulty-node fraction over 6 years: %.1f%%\n", 100*r.FaultyFraction)
	fmt.Fprintf(&b, "%-10s", "capacity")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, " %15s", c.Label)
	}
	fmt.Fprintf(&b, "\n")
	for i, cap := range coverageCapacities {
		fmt.Fprintf(&b, "%-10s", byteLabel(cap))
		for _, c := range r.Curves {
			fmt.Fprintf(&b, " %14.1f%%", 100*c.Points[i].Coverage)
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "%-10s", "limit")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, " %14.1f%%", 100*c.Asymptote)
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}

func byteLabel(v int64) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%dMiB", v>>20)
	case v >= 1<<10:
		return fmt.Sprintf("%dKiB", v>>10)
	default:
		return fmt.Sprintf("%dB", v)
	}
}

// --- Figures 12, 13, 14: DUEs, SDCs, replacements ---------------------------

// RepairColumn is one mechanism/way-limit combination of Figures 12-14.
type RepairColumn struct {
	Label        string
	DUEs         float64
	SDCs         float64
	Replacements float64
}

// Fig12Result holds one panel: the columns at one FIT scale and policy.
type Fig12Result struct {
	Title    string
	FITScale float64
	Policy   relsim.ReplacementPolicy
	Columns  []RepairColumn
}

// panelFromCells shapes six consecutive reliability cells (one
// reliabilityCombos block of the preset) into a Figure 12-14 panel.
func panelFromCells(res *scenario.Result, start int, fitScale float64, policy relsim.ReplacementPolicy, title string) Fig12Result {
	out := Fig12Result{Title: title, FITScale: fitScale, Policy: policy}
	cells := res.Scenario.Reliability.Cells
	for i := start; i < start+6; i++ {
		r := res.Reliability[i]
		out.Columns = append(out.Columns, RepairColumn{
			Label:        cells[i].Label,
			DUEs:         r.DUEs,
			SDCs:         r.SDCs,
			Replacements: r.Replacements,
		})
	}
	return out
}

// fig12Of shapes the fig12 preset's result into its 1x and 10x FIT panels.
func fig12Of(res *scenario.Result) [2]Fig12Result {
	return [2]Fig12Result{
		panelFromCells(res, 0, 1, relsim.ReplaceAfterDUE,
			"Figure 12a: expected DUEs per 16,384-node system over 6 years (1x FIT)"),
		panelFromCells(res, 6, 10, relsim.ReplaceAfterDUE,
			"Figure 12b: expected DUEs per system (10x FIT)"),
	}
}

// fig13Of retitles the fig12 preset's panels for Figure 13.
func fig13Of(res *scenario.Result) [2]Fig12Result {
	p := fig12Of(res)
	p[0].Title = "Figure 13a: expected SDCs per system (1x FIT)"
	p[1].Title = "Figure 13b: expected SDCs per system (10x FIT)"
	return p
}

// Fig14Result carries the four replacement panels.
type Fig14Result struct {
	Panels []Fig12Result
}

// fig14Of shapes the DIMM-replacement comparison: ReplA (after first DUE)
// and ReplB (after frequent errors) at 1x and 10x FIT.
func fig14Of(res *scenario.Result) Fig14Result {
	specs := []struct {
		fit    float64
		policy relsim.ReplacementPolicy
		title  string
	}{
		{1, relsim.ReplaceAfterDUE, "Figure 14a: DIMM replacements, replace after first DUE (1x FIT)"},
		{10, relsim.ReplaceAfterDUE, "Figure 14b: DIMM replacements, replace after first DUE (10x FIT)"},
		{1, relsim.ReplaceAfterThreshold, "Figure 14c: DIMM replacements, replace after frequent errors (1x FIT)"},
		{10, relsim.ReplaceAfterThreshold, "Figure 14d: DIMM replacements, replace after frequent errors (10x FIT)"},
	}
	var out Fig14Result
	for i, sp := range specs {
		out.Panels = append(out.Panels, panelFromCells(res, 6*i, sp.fit, sp.policy, sp.title))
	}
	return out
}

// String prints a DUE panel.
func (r Fig12Result) String() string { return r.format("DUEs") }

// Format prints the chosen metric of the panel.
func (r Fig12Result) format(metric string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	fmt.Fprintf(&b, "%-18s %12s\n", "Mechanism", metric)
	for _, c := range r.Columns {
		var v float64
		switch metric {
		case "DUEs":
			v = c.DUEs
		case "SDCs":
			v = c.SDCs
		default:
			v = c.Replacements
		}
		fmt.Fprintf(&b, "%-18s %12.4f\n", c.Label, v)
	}
	return b.String()
}

// StringSDC prints the panel as a Figure 13 SDC table.
func (r Fig12Result) StringSDC() string { return r.format("SDCs") }

// String prints all replacement panels.
func (r Fig14Result) String() string {
	var b strings.Builder
	for _, p := range r.Panels {
		b.WriteString(p.format("Replacements"))
	}
	return b.String()
}
