package perf

import (
	"testing"

	"relaxfault/internal/trace"
)

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
