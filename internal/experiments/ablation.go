package experiments

import (
	"fmt"
	"strings"

	"relaxfault/internal/scenario"
)

// AblationRow is one mechanism's coverage/capacity outcome in the ablation
// study.
type AblationRow struct {
	Label     string
	WayLimit  int
	Coverage  float64
	P90Bytes  float64
	MeanBytes float64
}

// AblationResult covers the design-choice studies DESIGN.md calls out:
// what each ingredient of the RelaxFault mapping buys (coalescing, set
// spreading), and how LLC-based repair compares against the retirement
// alternatives of Section 6 (OS page retirement at 4KiB and 2MiB frames,
// channel mirroring).
type AblationResult struct {
	Rows           []AblationRow
	FaultyFraction float64
}

// ablationsOf shapes the coverage study over the ablated mappings and the
// retirement baselines.
func ablationsOf(res *scenario.Result) AblationResult {
	cov := res.Coverage[0]
	out := AblationResult{FaultyFraction: cov.FaultyFraction}
	for _, c := range cov.Curves {
		// Page retirement and mirroring ignore way limits; show them once.
		if (strings.HasPrefix(c.Planner, "PageRetire") || c.Planner == "Mirroring") && c.WayLimit != 1 {
			continue
		}
		out.Rows = append(out.Rows, AblationRow{
			Label:    c.Planner,
			WayLimit: c.WayLimit,
			Coverage: c.Coverage(),
			P90Bytes: c.CapacityQuantile(0.90),
		})
	}
	return out
}

// String prints the ablation table.
func (r AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations: what each design choice buys (coverage over faulty nodes;\n")
	fmt.Fprintf(&b, "capacity is LLC bytes for remap engines, lost DRAM for retirement)\n")
	fmt.Fprintf(&b, "%-26s %5s %9s %14s\n", "mechanism", "ways", "coverage", "p90 capacity")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-26s %5d %8.1f%% %13.0fB\n", row.Label, row.WayLimit, 100*row.Coverage, row.P90Bytes)
	}
	return b.String()
}

// VariantRow reports RelaxFault coverage on an alternative memory
// organisation.
type VariantRow struct {
	Name           string
	Coverage1Way   float64
	Coverage4Way   float64
	FaultyFraction float64
}

// VariantResult backs Section 2's claim that the mechanism transfers across
// DRAM organisations.
type VariantResult struct {
	Rows []VariantRow
}

// variantsOf shapes the variants preset's result: one study per
// organisation, the row names read back from the preset's study labels.
func variantsOf(res *scenario.Result) VariantResult {
	var out VariantResult
	for i, cov := range res.Coverage {
		out.Rows = append(out.Rows, VariantRow{
			Name:           res.Scenario.Coverage.Studies[i].Label,
			Coverage1Way:   cov.Curve("RelaxFault", 1).Coverage(),
			Coverage4Way:   cov.Curve("RelaxFault", 4).Coverage(),
			FaultyFraction: cov.FaultyFraction,
		})
	}
	return out
}

// String prints the variants table.
func (r VariantResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Geometry variants: RelaxFault coverage across DRAM organisations\n")
	fmt.Fprintf(&b, "%-26s %10s %10s %10s\n", "organisation", "1-way", "4-way", "faulty")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-26s %9.1f%% %9.1f%% %9.1f%%\n",
			row.Name, 100*row.Coverage1Way, 100*row.Coverage4Way, 100*row.FaultyFraction)
	}
	return b.String()
}

// PrefetchRow is one workload's outcome in the prefetcher ablation.
type PrefetchRow struct {
	Workload      string
	WSOff, WSOn   float64
	WS4WayOff     float64
	WS4WayOn      float64
	PrefetchFills uint64
}

// PrefetchResult checks that the paper's conclusion (repair capacity is
// essentially free) survives adding a stream prefetcher to the cores.
type PrefetchResult struct {
	Rows []PrefetchRow
}

// prefetchOf shapes the prefetch preset's result. Its units come
// workload-major, prefetch-degree-minor: (SP,0), (SP,4), (LULESH,0),
// (LULESH,4); each unit's locks are [no-repair, 4-way].
func prefetchOf(res *scenario.Result) PrefetchResult {
	var out PrefetchResult
	for i := 0; i+1 < len(res.Perf); i += 2 {
		off, on := res.Perf[i], res.Perf[i+1]
		out.Rows = append(out.Rows, PrefetchRow{
			Workload:      off.Workload,
			WSOff:         off.Speedups[0],
			WS4WayOff:     off.Speedups[1],
			WSOn:          on.Speedups[0],
			WS4WayOn:      on.Speedups[1],
			PrefetchFills: on.Results[0].Prefetches,
		})
	}
	return out
}

// String prints the prefetch ablation.
func (r PrefetchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Prefetcher ablation: weighted speedup with/without a degree-4 stream prefetcher\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %12s %12s %11s\n", "workload", "WS off", "WS on", "WS4way off", "WS4way on", "prefetches")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %10.2f %10.2f %12.2f %12.2f %11d\n",
			row.Workload, row.WSOff, row.WSOn, row.WS4WayOff, row.WS4WayOn, row.PrefetchFills)
	}
	return b.String()
}
