// Fleetstudy: the reliability question an HPC-site operator asks before
// adopting RelaxFault — over 6 years on a 16,384-node machine, how many
// uncorrectable errors, silent corruptions, and DIMM replacements does
// LLC-based repair avoid compared to doing nothing, post-package repair, or
// FreeFault? This drives the Monte Carlo reliability simulator exactly the
// way Figures 12-14 of the paper do.
package main

import (
	"errors"
	"fmt"
	"log"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/relsim"
	"relaxfault/internal/repair"
)

func main() {
	g := dram.Default8GiBNode()
	mapper, err := addrmap.New(g, 8192)
	if err != nil {
		log.Fatal(err)
	}
	ppr, err1 := repair.NewPPR(g, 0, 0) // one spare row per bank group
	freeFault, err2 := repair.NewFreeFault(mapper, 16, true)
	relaxFault, err3 := repair.NewRelaxFault(mapper, 16, repair.RelaxFaultOptions{})
	if err := errors.Join(err1, err2, err3); err != nil {
		log.Fatal(err)
	}

	configs := []struct {
		label   string
		planner repair.Planner
		ways    int
	}{
		{"no repair", nil, 0},
		{"PPR (1 spare row / bank group)", ppr, 0},
		{"FreeFault, <=4 LLC ways/set", freeFault, 4},
		{"RelaxFault, <=1 LLC way/set", relaxFault, 1},
		{"RelaxFault, <=4 LLC ways/set", relaxFault, 4},
	}

	fmt.Println("16,384-node fleet, 8 DIMMs/node, chipkill ECC, 6-year horizon")
	fmt.Println("replacement policy: swap a DIMM after frequent corrected errors (ReplB)")
	fmt.Println()
	fmt.Printf("%-32s %8s %9s %13s %14s\n", "mechanism", "DUEs", "SDCs", "replacements", "DIMMs saved")

	var baseRepl float64
	for i, c := range configs {
		cfg := relsim.DefaultConfig()
		cfg.Planner = c.planner
		cfg.WayLimit = c.ways
		cfg.Policy = relsim.ReplaceAfterThreshold
		cfg.Replicas = 6
		cfg.Seed = 2026
		res, err := relsim.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		saved := "-"
		if i == 0 {
			baseRepl = res.Replacements
		} else if baseRepl > 0 {
			saved = fmt.Sprintf("%.0f%%", 100*(1-res.Replacements/baseRepl))
		}
		fmt.Printf("%-32s %8.2f %9.4f %13.1f %14s\n",
			c.label, res.DUEs, res.SDCs, res.Replacements, saved)
	}

	fmt.Println()
	fmt.Println("coverage detail (fraction of faulty nodes fully repaired, and the LLC")
	fmt.Println("capacity the repairs consume at the 90th percentile):")
	cov := relsim.DefaultCoverageConfig()
	cov.FaultyNodes = 6000
	cov.Planners = []repair.Planner{relaxFault, freeFault, ppr}
	res, err := relsim.CoverageStudy(cov)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("faulty nodes over 6 years: %.1f%% of the fleet\n\n", 100*res.FaultyFraction)
	fmt.Printf("%-18s %8s %10s %12s\n", "mechanism", "ways", "coverage", "p90 capacity")
	for _, curve := range res.Curves {
		if curve.WayLimit == 16 && curve.Planner != "RelaxFault" {
			continue
		}
		cap90 := curve.CapacityQuantile(0.90)
		fmt.Printf("%-18s %8d %9.1f%% %11.0fB\n",
			curve.Planner, curve.WayLimit, 100*curve.Coverage(), cap90)
	}
}
