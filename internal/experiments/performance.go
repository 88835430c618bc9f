package experiments

import (
	"fmt"
	"strings"

	"relaxfault/internal/perf"
	"relaxfault/internal/scenario"
	"relaxfault/internal/trace"
)

// --- Table 3 and Table 4 -----------------------------------------------

// Table3 prints the simulated-system parameters (the performance model's
// configuration).
func Table3() string {
	cfg := perf.DefaultSystemConfig()
	g := cfg.Mem.Geometry
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: simulated system parameters\n")
	fmt.Fprintf(&b, "%-18s %s\n", "Processor", "8-core, 4GHz, 4-wide, trace-driven OOO approximation")
	fmt.Fprintf(&b, "%-18s 32KiB private, 8-way, 64B lines, pipelined hits\n", "L1 caches")
	fmt.Fprintf(&b, "%-18s 128KiB private, 8-way, 64B lines, 8-cycle\n", "L2 caches")
	fmt.Fprintf(&b, "%-18s 8MiB shared, %d-way, 64B lines, 30-cycle\n", "L3 cache", cfg.Mem.LLCWays)
	fmt.Fprintf(&b, "%-18s FR-FCFS, open page, bank XOR hashing: true\n", "Memory controller")
	fmt.Fprintf(&b, "%-18s %d channels, %d ranks/channel, %d banks/rank, DDR3-1600 (11-11-11)\n",
		"Main memory", g.Channels, g.DIMMsPerChan, g.Banks)
	return b.String()
}

// Table4 prints the workload inventory.
func Table4() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: workloads\n")
	fmt.Fprintf(&b, "%-8s %-44s %s\n", "Name", "Description", "Per-core threads")
	for _, w := range trace.Workloads() {
		names := map[string]bool{}
		var list []string
		for _, t := range w.Threads {
			if !names[t.Name] {
				names[t.Name] = true
				list = append(list, t.Name)
			}
		}
		fmt.Fprintf(&b, "%-8s %-44s %s\n", w.Name, w.Description, strings.Join(list, ", "))
	}
	return b.String()
}

// --- Figures 15 and 16 -------------------------------------------------

// PerfRow is one workload's results across the repair configurations.
type PerfRow struct {
	Workload string
	// WS holds weighted speedups by configuration.
	WSNone, WS100KiB, WS1Way, WS4Way float64
	// RelPower holds DRAM dynamic power relative to no-repair (percent).
	Power100KiB, Power1Way, Power4Way float64
}

// Fig15Result carries every workload's weighted speedup and relative power
// (Figures 15 and 16 come from the same simulations).
type Fig15Result struct {
	Rows         []PerfRow
	Instructions uint64
}

// fig15Of shapes the fig15 preset's result: one unit per Table 4 workload
// across the four lock configurations; the power columns derive from the
// same simulation results (Figure 16 shares Figure 15's runs).
func fig15Of(res *scenario.Result) Fig15Result {
	out := Fig15Result{Instructions: res.Scenario.Budget.Instructions}
	for _, u := range res.Perf {
		// The runner charges relative power with the scenario technology's
		// energy table (DDR3-1600 here); RelPower[0] is the 100% baseline.
		out.Rows = append(out.Rows, PerfRow{
			Workload: u.Workload,
			WSNone:   u.Speedups[0], WS100KiB: u.Speedups[1], WS1Way: u.Speedups[2], WS4Way: u.Speedups[3],
			Power100KiB: u.RelPower[1], Power1Way: u.RelPower[2], Power4Way: u.RelPower[3],
		})
	}
	return out
}

// String prints the Figure 15 weighted-speedup table.
func (r Fig15Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 15: weighted speedup under LLC capacity dedicated to repair\n")
	fmt.Fprintf(&b, "(per-core budget: %d instructions)\n", r.Instructions)
	fmt.Fprintf(&b, "%-8s %9s %9s %9s %9s\n", "Workload", "no-repair", "100KiB", "1-way", "4-way")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %9.2f %9.2f %9.2f %9.2f\n",
			row.Workload, row.WSNone, row.WS100KiB, row.WS1Way, row.WS4Way)
	}
	return b.String()
}

// StringPower prints the Figure 16 relative-power table.
func (r Fig15Result) StringPower() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 16: DRAM dynamic power relative to full LLC capacity (%%)\n")
	fmt.Fprintf(&b, "%-8s %9s %9s %9s %9s\n", "Workload", "no-repair", "100KiB", "1-way", "4-way")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %9.1f %9.1f %9.1f %9.1f\n",
			row.Workload, 100.0, row.Power100KiB, row.Power1Way, row.Power4Way)
	}
	return b.String()
}
