package perf

import (
	"testing"

	"relaxfault/internal/trace"
)

// TestWeightedSpeedupSensitivity probes the Figure 15 behaviour: workloads
// are broadly insensitive to 1-way repair locking, and LULESH is the one
// that visibly degrades at 4 ways.
func TestWeightedSpeedupSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("perf simulation is slow")
	}
	for _, name := range []string{"SP", "LULESH"} {
		w := trace.WorkloadByName(name)
		if w == nil {
			t.Fatalf("missing workload %s", name)
		}
		cfg := DefaultSystemConfig()
		cfg.TargetInstructions = 400_000

		base, alone, baseRes, err := WeightedSpeedup(cfg, w.Threads, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg1 := cfg
		cfg1.LockWays = 1
		ws1, _, _, err := WeightedSpeedup(cfg1, w.Threads, alone)
		if err != nil {
			t.Fatal(err)
		}
		cfg4 := cfg
		cfg4.LockWays = 4
		ws4, _, res4, err := WeightedSpeedup(cfg4, w.Threads, alone)
		if err != nil {
			t.Fatal(err)
		}
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

// BenchmarkRun times the two kinds of Figure 15 run at the benchmark's
// 30k-instruction budget: SP's eight threads sharing an LLC with one way
// locked, and SP's first thread alone on the full LLC. Each runs on one
// Machine, as a scenario worker does, warmed by one untimed run. Besides
// ns/op it reports host nanoseconds per simulated kilo-instruction
// (threads times the per-core target).
func BenchmarkRun(b *testing.B) {
	w := trace.WorkloadByName("SP")
	for _, bc := range []struct {
		name    string
		threads []trace.ThreadParams
		ways    int
	}{
		{"shared-1way", w.Threads, 1},
		{"alone", w.Threads[:1], 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := DefaultSystemConfig()
			cfg.TargetInstructions = 30_000
			cfg.LockWays = bc.ways
			var m Machine
			if _, err := m.Run(cfg, bc.threads); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(cfg, bc.threads); err != nil {
					b.Fatal(err)
				}
			}
			kinstr := float64(b.N) * float64(len(bc.threads)) * float64(cfg.TargetInstructions) / 1e3
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/kinstr, "ns/kinstr")
		})
	}
}
