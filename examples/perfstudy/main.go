// Perfstudy: how much performance and DRAM power does dedicating LLC
// capacity to RelaxFault repair actually cost? Runs a capacity-sensitive
// HPC workload (LULESH) and a streaming one (SP) on the 8-core performance
// model under the paper's four configurations and prints weighted speedup
// and relative DRAM dynamic power (Figures 15 and 16 for two workloads).
package main

import (
	"fmt"
	"log"

	"relaxfault/internal/perf"
	"relaxfault/internal/power"
	"relaxfault/internal/trace"
)

func main() {
	for _, name := range []string{"SP", "LULESH"} {
		w := trace.WorkloadByName(name)
		if w == nil {
			log.Fatalf("unknown workload %s", name)
		}
		cfg := perf.DefaultSystemConfig()
		cfg.TargetInstructions = 600_000

		type config struct {
			label string
			ways  int
			bytes int64
		}
		configs := []config{
			{"no repair", 0, 0},
			{"100KiB locked lines", 0, 100 << 10},
			{"1 way locked", 1, 0},
			{"4 ways locked", 4, 0},
		}

		fmt.Printf("workload %s (%s), 8 cores, per-core budget %d instructions\n",
			w.Name, w.Description, cfg.TargetInstructions)
		fmt.Printf("%-22s %10s %12s %12s %10s\n", "config", "WS", "LLC misses", "row hits", "relPower")

		var alone []float64
		var baseline *perf.Result
		for _, c := range configs {
			run := cfg
			run.LockWays = c.ways
			run.LockBytes = c.bytes
			ws, a, res, err := perf.WeightedSpeedup(run, w.Threads, alone)
			if err != nil {
				log.Fatal(err)
			}
			alone = a
			rel := 100.0
			if baseline == nil {
				baseline = res
			} else {
				rel = power.DDR3Energies().RelativeDynamicPower(res.Ops, baseline.Ops, res.Seconds, baseline.Seconds)
			}
			rowHitRate := float64(res.RowHits) / float64(res.RowHits+res.RowMisses+1)
			fmt.Printf("%-22s %10.3f %12d %11.1f%% %9.1f%%\n",
				c.label, ws, res.LLCMisses, 100*rowHitRate, rel)
		}
		fmt.Println()
	}
}
