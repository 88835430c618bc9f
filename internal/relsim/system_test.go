package relsim

import (
	"testing"

	"relaxfault/internal/addrmap"
	"relaxfault/internal/dram"
	"relaxfault/internal/repair"
)

// TestSystemRunShapes runs the 16K-node system under the paper's policies
// and checks the qualitative Figure 12/13/14 results: repair roughly halves
// DUEs at 1x FIT with RelaxFault best; SDCs are orders of magnitude rarer
// than DUEs; RelaxFault cuts ReplA replacements by a large factor; and the
// aggressive ReplB policy replaces vastly more DIMMs than ReplA.
func TestSystemRunShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("system simulation is slow")
	}
	g := dram.Default8GiBNode()
	m, err := addrmap.New(g, 8192)
	if err != nil {
		t.Fatal(err)
	}
	run := func(planner repair.Planner, ways int, policy ReplacementPolicy) Result {
		cfg := DefaultConfig()
		cfg.Planner = planner
		cfg.WayLimit = ways
		cfg.Policy = policy
		cfg.Replicas = 12
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	noRepairA := run(nil, 0, ReplaceAfterDUE)
	rf4A := run(must(repair.NewRelaxFault(m, 16, repair.RelaxFaultOptions{})), 4, ReplaceAfterDUE)
	ppr4A := run(must(repair.NewPPR(g, 0, 0)), 4, ReplaceAfterDUE)
	noRepairB := run(nil, 0, ReplaceAfterThreshold)
	rf4B := run(must(repair.NewRelaxFault(m, 16, repair.RelaxFaultOptions{})), 4, ReplaceAfterThreshold)

	t.Logf("no-repair/ReplA: faulty=%.0f multiDIMM=%.1f DUE=%.2f SDC=%.4f repl=%.2f",
		noRepairA.FaultyNodes, noRepairA.MultiDeviceFaultDIMMs, noRepairA.DUEs, noRepairA.SDCs, noRepairA.Replacements)
	t.Logf("RF-4way/ReplA:   DUE=%.2f SDC=%.4f repl=%.2f repairedDIMMs=%.0f/%.0f",
		rf4A.DUEs, rf4A.SDCs, rf4A.Replacements, rf4A.RepairedDIMMs, rf4A.FaultyDIMMs)
	t.Logf("PPR/ReplA:       DUE=%.2f SDC=%.4f repl=%.2f", ppr4A.DUEs, ppr4A.SDCs, ppr4A.Replacements)
	t.Logf("no-repair/ReplB: repl=%.0f", noRepairB.Replacements)
	t.Logf("RF-4way/ReplB:   repl=%.0f", rf4B.Replacements)

	// Paper shape checks (generous bands; Monte Carlo noise at 12 replicas).
	if noRepairA.FaultyNodes < 1500 || noRepairA.FaultyNodes > 2500 {
		t.Errorf("faulty nodes %.0f outside [1500, 2500] (paper: ~12%% of 16384)", noRepairA.FaultyNodes)
	}
	if noRepairA.DUEs < 2 || noRepairA.DUEs > 40 {
		t.Errorf("baseline DUEs %.2f outside [2, 40] (paper: ~8)", noRepairA.DUEs)
	}
	if rf4A.DUEs > noRepairA.DUEs*0.75 {
		t.Errorf("RelaxFault should cut DUEs by ~half: %.2f -> %.2f", noRepairA.DUEs, rf4A.DUEs)
	}
	if rf4A.DUEs > ppr4A.DUEs {
		t.Errorf("RelaxFault (%.2f DUEs) should beat PPR (%.2f)", rf4A.DUEs, ppr4A.DUEs)
	}
	if noRepairA.SDCs > noRepairA.DUEs*0.05 {
		t.Errorf("SDCs (%.4f) should be far rarer than DUEs (%.2f)", noRepairA.SDCs, noRepairA.DUEs)
	}
	if noRepairB.Replacements < 50*noRepairA.Replacements {
		t.Errorf("ReplB (%.0f) should replace vastly more than ReplA (%.2f)", noRepairB.Replacements, noRepairA.Replacements)
	}
	if rf4B.Replacements > noRepairB.Replacements*0.35 {
		t.Errorf("RelaxFault under ReplB should save most replacements: %.0f -> %.0f",
			noRepairB.Replacements, rf4B.Replacements)
	}
	savedFrac := rf4B.RepairedDIMMs / rf4B.FaultyDIMMs
	if savedFrac < 0.75 {
		t.Errorf("RelaxFault should transparently repair most faulty DIMMs (paper: 87%%), got %.2f", savedFrac)
	}
}
