package perf_test

import (
	"context"
	"testing"

	"relaxfault/internal/scenario"
)

// figure15 runs workloads through a seed-1 perf scenario on the path the
// figure takes (scenario.RunCtx, whose runPerf evaluates Equation 2) at a
// per-core budget of instructions, measuring each lock against locks[0],
// the unlocked baseline. At seed 1 the scenario lowers to
// perf.DefaultSystemConfig() with that budget.
func figure15(t *testing.T, instructions uint64, workloads []string, locks ...scenario.LockSpec) []scenario.PerfUnit {
	t.Helper()
	seed := uint64(1)
	sc := &scenario.Scenario{
		Name: "figure15-shape", Kind: scenario.KindPerf, Seed: &seed,
		Budget: scenario.Budget{Instructions: instructions},
		Perf:   &scenario.PerfSpec{Workloads: workloads, Locks: locks},
	}
	res, err := scenario.RunCtx(context.Background(), sc, scenario.Exec{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Perf
}

var (
	unlocked = scenario.LockSpec{Label: "none"}
	lock100K = scenario.LockSpec{Label: "100KiB", Bytes: 100 << 10}
	lock1Way = scenario.LockSpec{Label: "1way", Ways: 1}
	lock4Way = scenario.LockSpec{Label: "4way", Ways: 4}
)

// TestAllWorkloadsFigure15Shape sweeps every Table 4 workload through the
// Figure 15 configurations and checks the paper's qualitative findings:
// weighted speedup is essentially unaffected by 100KiB or 1-way repair
// locking everywhere, and only LULESH responds perceptibly to 4 ways.
func TestAllWorkloadsFigure15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("perf sweep is slow")
	}
	for _, u := range figure15(t, 300_000, nil, unlocked, lock100K, lock1Way, lock4Way) {
		t.Run(u.Workload, func(t *testing.T) {
			base, wsK, ws1, ws4 := u.Speedups[0], u.Speedups[1], u.Speedups[2], u.Speedups[3]
			t.Logf("%-7s WS none=%.2f 100KiB=%.2f 1way=%.2f 4way=%.2f relPower(4way)=%.1f%%",
				u.Workload, base, wsK, ws1, ws4, u.RelPower[3])

			if base < 1.0 || base > 8.0 {
				t.Errorf("%s: baseline WS %.2f implausible for 8 cores", u.Workload, base)
			}
			if wsK < base*0.97 {
				t.Errorf("%s: 100KiB repair cost more than 3%%: %.2f -> %.2f", u.Workload, base, wsK)
			}
			if ws1 < base*0.94 {
				t.Errorf("%s: 1-way repair cost more than 6%%: %.2f -> %.2f", u.Workload, base, ws1)
			}
			// LULESH's 4-way sensitivity needs a warm LLC, which this short
			// sweep does not provide; TestLULESHCapacitySensitivity covers
			// it with a longer run.
			if u.Workload != "LULESH" && ws4 < base*0.90 {
				t.Errorf("%s should be broadly insensitive at 4 ways: %.2f -> %.2f", u.Workload, base, ws4)
			}
		})
	}
}

// TestWeightedSpeedupSensitivity probes the Figure 15 behaviour: workloads
// are broadly insensitive to 1-way repair locking, and LULESH is the one
// that visibly degrades at 4 ways.
func TestWeightedSpeedupSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("perf simulation is slow")
	}
	for _, u := range figure15(t, 400_000, []string{"SP", "LULESH"}, unlocked, lock1Way, lock4Way) {
		name := u.Workload
		base, ws1, ws4 := u.Speedups[0], u.Speedups[1], u.Speedups[2]
		baseRes, res4 := u.Results[0], u.Results[2]
		t.Logf("%s: WS none=%.3f 1way=%.3f 4way=%.3f (cycles %d -> %d, llcmiss %d -> %d)",
			name, base, ws1, ws4, baseRes.Cycles, res4.Cycles, baseRes.LLCMisses, res4.LLCMisses)
		if base <= 0 || ws1 <= 0 || ws4 <= 0 {
			t.Fatalf("%s: non-positive weighted speedup", name)
		}
		if ws1 < base*0.95 {
			t.Errorf("%s: 1-way locking dropped WS by more than 5%%: %.3f -> %.3f", name, base, ws1)
		}
		switch name {
		case "SP":
			if ws4 < base*0.93 {
				t.Errorf("SP should be insensitive to 4-way locking: %.3f -> %.3f", base, ws4)
			}
		case "LULESH":
			// The positive sensitivity check needs a warm LLC and lives in
			// TestLULESHCapacitySensitivity; here only guard against an
			// implausibly large effect at short horizons.
			if ws4 < base*0.75 {
				t.Errorf("LULESH 4-way loss implausibly large: %.3f -> %.3f", base, ws4)
			}
		}
	}
}

// TestLULESHCapacitySensitivity reproduces the one performance-visible case
// of Figure 15: LULESH, whose hot state sits just above the LLC capacity,
// loses weighted speedup when 4 ways of every set are dedicated to repair,
// while 1-way locking stays in the noise. The run is long enough to warm
// the 8MiB LLC.
func TestLULESHCapacitySensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("long perf run")
	}
	u := figure15(t, 1_200_000, []string{"LULESH"}, unlocked, lock1Way, lock4Way)[0]
	base, ws1, ws4 := u.Speedups[0], u.Speedups[1], u.Speedups[2]
	t.Logf("LULESH WS: none=%.3f 1way=%.3f (%.1f%%) 4way=%.3f (%.1f%%)",
		base, ws1, 100*ws1/base-100, ws4, 100*ws4/base-100)
	if ws1 < base*0.93 {
		t.Errorf("1-way repair should be near-free: %.3f -> %.3f", base, ws1)
	}
	drop := 1 - ws4/base
	if drop < 0.02 {
		t.Errorf("4-way locking should perceptibly hurt LULESH (paper: ~7%%), got %.1f%%", 100*drop)
	}
	if drop > 0.35 {
		t.Errorf("4-way LULESH loss implausibly large: %.1f%%", 100*drop)
	}
}
