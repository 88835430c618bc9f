package perf_test

import (
	"testing"

	"relaxfault/internal/perf"
	"relaxfault/internal/power"
	"relaxfault/internal/trace"
)

// TestAllWorkloadsFigure15Shape sweeps every Table 4 workload through the
// Figure 15 configurations and checks the paper's qualitative findings:
// weighted speedup is essentially unaffected by 100KiB or 1-way repair
// locking everywhere, and only LULESH responds perceptibly to 4 ways.
func TestAllWorkloadsFigure15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("perf sweep is slow")
	}
	for _, w := range trace.Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cfg := perf.DefaultSystemConfig()
			cfg.TargetInstructions = 300_000

			base, alone, baseRes, err := perf.WeightedSpeedup(cfg, w.Threads, nil)
			if err != nil {
				t.Fatal(err)
			}
			cfgK := cfg
			cfgK.LockBytes = 100 << 10
			wsK, _, _, err := perf.WeightedSpeedup(cfgK, w.Threads, alone)
			if err != nil {
				t.Fatal(err)
			}
			cfg1 := cfg
			cfg1.LockWays = 1
			ws1, _, _, err := perf.WeightedSpeedup(cfg1, w.Threads, alone)
			if err != nil {
				t.Fatal(err)
			}
			cfg4 := cfg
			cfg4.LockWays = 4
			ws4, _, res4, err := perf.WeightedSpeedup(cfg4, w.Threads, alone)
			if err != nil {
				t.Fatal(err)
			}
			relPower := power.DDR3Energies().RelativeDynamicPower(res4.Ops, baseRes.Ops, res4.Seconds, baseRes.Seconds)
			t.Logf("%-7s WS none=%.2f 100KiB=%.2f 1way=%.2f 4way=%.2f relPower(4way)=%.1f%%",
				w.Name, base, wsK, ws1, ws4, relPower)

			if base < 1.0 || base > 8.0 {
				t.Errorf("%s: baseline WS %.2f implausible for 8 cores", w.Name, base)
			}
			if wsK < base*0.97 {
				t.Errorf("%s: 100KiB repair cost more than 3%%: %.2f -> %.2f", w.Name, base, wsK)
			}
			if ws1 < base*0.94 {
				t.Errorf("%s: 1-way repair cost more than 6%%: %.2f -> %.2f", w.Name, base, ws1)
			}
			// LULESH's 4-way sensitivity needs a warm LLC, which this short
			// sweep does not provide; TestLULESHCapacitySensitivity covers
			// it with a longer run.
			if w.Name != "LULESH" && ws4 < base*0.90 {
				t.Errorf("%s should be broadly insensitive at 4 ways: %.2f -> %.2f", w.Name, base, ws4)
			}
		})
	}
}
