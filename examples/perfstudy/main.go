// Perfstudy: how much performance and DRAM power does dedicating LLC
// capacity to RelaxFault repair actually cost? Runs a capacity-sensitive
// HPC workload (LULESH) and a streaming one (SP) on the 8-core performance
// model under the paper's four configurations and prints weighted speedup
// and relative DRAM dynamic power (Figures 15 and 16 for two workloads).
// The runs go through a perf scenario, the path the figures take.
package main

import (
	"context"
	"fmt"
	"log"

	"relaxfault/internal/scenario"
	"relaxfault/internal/trace"
)

func main() {
	seed := uint64(1)
	sc := &scenario.Scenario{
		Name: "perfstudy", Kind: scenario.KindPerf, Seed: &seed,
		Budget: scenario.Budget{Instructions: 600_000},
		Perf: &scenario.PerfSpec{
			Workloads: []string{"SP", "LULESH"},
			// The unlocked baseline comes first: it provides the alone-IPC
			// denominators and the power baseline.
			Locks: []scenario.LockSpec{
				{Label: "no repair"},
				{Label: "100KiB locked lines", Bytes: 100 << 10},
				{Label: "1 way locked", Ways: 1},
				{Label: "4 ways locked", Ways: 4},
			},
		},
	}
	res, err := scenario.RunCtx(context.Background(), sc, scenario.Exec{})
	if err != nil {
		log.Fatal(err)
	}
	for _, u := range res.Perf {
		w := trace.WorkloadByName(u.Workload)
		fmt.Printf("workload %s (%s), 8 cores, per-core budget %d instructions\n",
			w.Name, w.Description, sc.Budget.Instructions)
		fmt.Printf("%-22s %10s %12s %12s %10s\n", "config", "WS", "LLC misses", "row hits", "relPower")
		for l, r := range u.Results {
			rowHitRate := float64(r.RowHits) / float64(r.RowHits+r.RowMisses+1)
			fmt.Printf("%-22s %10.3f %12d %11.1f%% %9.1f%%\n",
				u.Locks[l].Label, u.Speedups[l], r.LLCMisses, 100*rowHitRate, u.RelPower[l])
		}
		fmt.Println()
	}
}
